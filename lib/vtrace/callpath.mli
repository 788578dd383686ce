(** Call-path reconstruction from matched records (paper Section 4.5).

    Instead of walking stack frames, the tracer assigns each call record an
    incrementing [cid] and reconstructs the chain offline: record [A]'s
    parent is the call record [B] with the largest [cid] such that
    [B.cid < A.cid], [B.eip < A.ret_addr] (the return address lies inside
    [B]'s function), and [A.ret_addr - B.eip] is smallest among candidates. *)

type node = {
  cid : int;
  fname : string;
  eip : int;
  ret_addr : int;
  ts : float;
  thread : int;
  latency_us : float;  (** 0 for unmatched calls *)
  parent : int option;  (** parent's cid *)
}

val reconstruct : Record_match.entry list -> node list
(** Nodes in [cid] order with parent links assigned. *)

val roots : node list -> node list
val children : node list -> int -> node list
val find : node list -> int -> node option
val chain_names : node list -> string list
(** Function-name sequence in [cid] order — the input to the differential
    critical path's longest-common-subsequence. *)

val exclusive_latency : node list -> node -> float
(** The node's latency minus its direct children's — the cost of the
    function's own code, which is what differential analysis attributes. *)

val depth_of : node list -> node -> int
