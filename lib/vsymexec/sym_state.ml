type kont =
  | Kstmts of Vir.Ast.block
  | Kloop of { cond : Vir.Ast.expr; body : Vir.Ast.block; iter : int }
  | Kret of { dest : string option; fname : string; ret_addr : int }

type status = Running | Terminated of Vsmt.Expr.t option | Killed of string

type t = {
  id : int;
  parent : int option;
  path : Fork_path.t;
      (* fork history from the root: one step appended per fork the lineage
         survived ('t'/'f' for a branch, 's'/'x' for fault injection).
         Unique per state and independent of scheduling order — the sort
         key of the executor's deterministic reduction.  Extending is O(1);
         rendering is deferred and memoized (see Fork_path). *)
  next_symbol : int;
      (* per-state counter for fresh Internal symbols, so symbol names
         depend only on the state's own execution history, never on a
         global allocation order *)
  work : kont list;
  store : Sym_store.t;
  pc : Vsmt.Expr.t list;
  cost : Vruntime.Cost.t;
  serial_us : float;
  clock : float;
  signals : Signals.record list;
  next_cid : int;
  thread : int;
  tracing : bool;
  fuel : int;
  status : status;
}

let initial ~id ~store ~work ~fuel ~tracing =
  {
    id;
    parent = None;
    path = Fork_path.root;
    next_symbol = 0;
    work;
    store;
    pc = [];
    cost = Vruntime.Cost.zero;
    serial_us = 0.;
    clock = 0.;
    signals = [];
    next_cid = 0;
    thread = 0;
    tracing;
    fuel;
    status = Running;
  }

(* Apply [f] to every expression the state holds — the executor's
   rehash-on-load hook for marshalled snapshots, whose interned nodes carry
   another process's ids. *)
let map_exprs f t =
  {
    t with
    store = Sym_store.map_exprs f t.store;
    pc = List.map f t.pc;
    status = (match t.status with Terminated (Some e) -> Terminated (Some (f e)) | s -> s);
  }

let signals_in_order t = List.rev t.signals
