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
  pc_part : Vsmt.Partition.t;
      (* symbol-disjoint partition of [pc], maintained incrementally as
         constraints are appended (persistent, so forks share the common
         prefix's structure).  Rebuilt from scratch by [map_exprs]: the
         partition caches footprints, which are process-local. *)
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
    pc_part = Vsmt.Partition.empty;
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
let with_pc t pc = { t with pc; pc_part = Vsmt.Partition.extend t.pc_part pc }

let map_exprs f t =
  let pc = List.map f t.pc in
  {
    t with
    store = Sym_store.map_exprs f t.store;
    pc;
    pc_part = Vsmt.Partition.of_list pc;
    status = (match t.status with Terminated (Some e) -> Terminated (Some (f e)) | s -> s);
  }

let config_constraints t =
  List.filter (fun e -> Vsmt.Footprint.(exists_origin Vsmt.Expr.Config (of_expr e))) t.pc

let workload_constraints t =
  List.filter
    (fun e ->
      let f = Vsmt.Footprint.of_expr e in
      (not (Vsmt.Footprint.is_empty f)) && Vsmt.Footprint.for_all_origin Vsmt.Expr.Workload f)
    t.pc

let signals_in_order t = List.rev t.signals

let pp_status ppf = function
  | Running -> Fmt.string ppf "running"
  | Terminated None -> Fmt.string ppf "terminated"
  | Terminated (Some e) -> Fmt.pf ppf "terminated(%a)" Vsmt.Expr.pp e
  | Killed reason -> Fmt.pf ppf "killed(%s)" reason
