(** One symbolic-execution state (= one explored path).

    A state carries the whole per-path context: work continuations, the
    symbolic store, the memorized path constraints, the accumulated cost and
    virtual clock, and the tracer's signal log.  States are immutable;
    forking at a symbolic branch copies the record with a fresh id. *)

type kont =
  | Kstmts of Vir.Ast.block  (** statements remaining in a sequence *)
  | Kloop of { cond : Vir.Ast.expr; body : Vir.Ast.block; iter : int }
      (** a loop back-edge: re-test [cond]; [iter] counts completed
          iterations for the unroll bound *)
  | Kret of { dest : string option; fname : string; ret_addr : int }
      (** return point of an active call *)

type status =
  | Running
  | Terminated of Vsmt.Expr.t option  (** the entry function returned *)
  | Killed of string  (** fuel/unroll/constraint limits; reason recorded *)

type t = {
  id : int;
  parent : int option;
  path : Fork_path.t;
      (** fork history from the root, one step per fork survived (['t']/['f']
          for a branch, ['s']/['x'] for fault injection).  Unique per state
          and independent of exploration order — the sort key of the
          executor's canonical renumbering.  O(1) to extend;
          rendered (and memoized) only where the string is needed. *)
  next_symbol : int;
      (** per-state fresh-symbol counter: symbol names derive from the
          state's own history, not from a global allocation order *)
  work : kont list;
  store : Sym_store.t;
  pc : Vsmt.Expr.t list;  (** path constraints, conjunction *)
  pc_part : Vsmt.Partition.t;
      (** symbol-disjoint partition of [pc], maintained incrementally by
          {!with_pc} (persistent — forks share the common prefix's
          structure).  The executor slices solver queries with it. *)
  cost : Vruntime.Cost.t;
  serial_us : float;
  clock : float;  (** inflated symbolic-execution timestamp source *)
  signals : Signals.record list;  (** newest first *)
  next_cid : int;
  thread : int;
  tracing : bool;
  fuel : int;
  status : status;
}

val initial :
  id:int -> store:Sym_store.t -> work:kont list -> fuel:int -> tracing:bool -> t

val with_pc : t -> Vsmt.Expr.t list -> t
(** Replace the path condition, updating [pc_part] incrementally (cheap
    when the new list extends the old one, which is how the executor
    grows path conditions).  Every [pc] write must go through here so
    the partition never drifts from the constraints. *)

val config_constraints : t -> Vsmt.Expr.t list
(** Path constraints that mention at least one configuration variable. *)

val workload_constraints : t -> Vsmt.Expr.t list
(** Path constraints whose variables are all workload (input) variables —
    the row's input predicate (Section 4.6). *)

val signals_in_order : t -> Signals.record list
val pp_status : status Fmt.t

val map_exprs : (Vsmt.Expr.t -> Vsmt.Expr.t) -> t -> t
(** Apply a function to every expression in the state (store, path
    constraints, terminal value).  Used to re-intern
    ({!Vsmt.Expr.rehash}) states loaded from a marshalled snapshot. *)
