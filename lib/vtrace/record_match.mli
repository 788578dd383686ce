(** Call/return record matching (paper Figure 11, Section 4.5).

    A naive stack-based pairing assumes call/return signals are well nested
    and that a callee's return signal arrives before its caller's; the paper
    observed S²E violating that, so the tracer instead stores call and
    return records in two lists and matches them afterwards by the
    {e return address} field, partitioned by thread id.  The latency of a
    matched pair is the return timestamp minus the call timestamp. *)

type entry = {
  call : Vsymexec.Signals.record;
  ret : Vsymexec.Signals.record option;  (** [None]: no matching return *)
  latency_us : float option;
}

val match_records : Vsymexec.Signals.record list -> entry list
(** Input in emission order (possibly several threads interleaved); output
    in call-record order.  Within a thread, a return record matches the most
    recent unmatched call record carrying the same return address. *)
