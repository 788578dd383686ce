(** Low-level call/return signals emitted during symbolic execution.

    The Violet tracer is built on the call and return signals the engine
    emits (S²E's FunctionMonitor in the paper).  Each record stores only
    register-level facts — the callee start address (EIP), the return
    address, a timestamp, the thread id and an incrementing [cid] — and the
    expensive work (matching, latency, call-path reconstruction) is deferred
    to path termination (Section 5.3, optimization 2).

    [fname] carries the function name for test oracles and reports; the
    matching and reconstruction algorithms in {!Vtrace} use only addresses,
    exactly as the paper's tracer does (it resolves names offline via the
    load bias). *)

type kind =
  | Call of { eip : int; ret_addr : int }
      (** [eip] is the callee's start address *)
  | Ret of { ret_addr : int }

type record = { kind : kind; fname : string; ts : float; thread : int; cid : int }

val is_call : record -> bool
