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
  pc : Vsmt.Expr.t list;
      (** path constraints, conjunction; the executor slices each solver
          query from it when the query is made ({!Vsmt.Partition}) *)
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

val signals_in_order : t -> Signals.record list

val map_exprs : (Vsmt.Expr.t -> Vsmt.Expr.t) -> t -> t
(** Apply a function to every expression in the state (store, path
    constraints, terminal value).  Used to re-intern
    ({!Vsmt.Expr.rehash}) states loaded from a marshalled snapshot. *)
