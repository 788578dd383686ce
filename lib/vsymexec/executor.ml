module E = Vsmt.Expr
module Ast = Vir.Ast
module S = Sym_state
module B = Vresilience.Budget
module D = Vresilience.Degradation
module Chaos = Vresilience.Chaos
module ES = Vsched.Exploration_stats

type noise = {
  jitter : float;
  signal_delay_prob : float;
  signal_delay_us : float;
  seed : int;
}

(* Everything the scheduling loop needs to pick up where a previous run
   stopped: the DFS stack, the finished states, every engine counter that
   feeds the impact model and the telemetry recorder (the one count of
   forks and finished states).  The solver memo is not saved: a resumed
   run starts with an empty one, which cannot change a model because every
   memo answer equals a fresh solve.  All fields are closure-free data, so
   the whole record round-trips through [Marshal] with flags [].
   Expressions inside the states carry hashcons ids from the process that
   wrote them, so loading re-interns every expression ({!rehash_snapshot}). *)
type snapshot = {
  snap_program : string;
  snap_next_state_id : int;
  snap_n_solver_calls : int;
  snap_n_concretizations : int;
  snap_last_run_id : int;
  snap_finished : Sym_state.t list;  (* newest first *)
  snap_frontier : Sym_state.t list;  (* the DFS stack, top first *)
  snap_noise_rng : Random.State.t option;
  snap_recorder : Vsched.Exploration_stats.recorder;
  snap_degradation : D.event list;  (* ladder history, oldest first *)
  snap_visited : string list;  (* functions entered so far, sorted *)
}

type options = {
  env : Vruntime.Hw_env.t;
  sym_configs : (string * E.var) list;
  concrete_config : string -> int;
  sym_workloads : (string * E.var) list;
  concrete_workload : string -> int;
  budget : B.t;
  max_loop_unroll : int;
  state_switching : bool;
  slice : bool;
  noise : noise option;
  enable_tracer : bool;
  relaxation_rules : bool;
  fault_injection : bool;
  chaos : Chaos.t option;
  degradation : D.policy;
  checkpoint_every : int;
  on_checkpoint : (snapshot -> unit) option;
}

let default_options ?(env = Vruntime.Hw_env.hdd_server) ~config ~workload () =
  {
    env;
    sym_configs = [];
    concrete_config = config;
    sym_workloads = [];
    concrete_workload = workload;
    budget = B.with_max_states B.default 512;
    max_loop_unroll = 48;
    state_switching = false;
    slice = true;
    noise = None;
    enable_tracer = true;
    relaxation_rules = true;
    fault_injection = false;
    chaos = None;
    degradation = D.default_policy;
    checkpoint_every = 0;
    on_checkpoint = None;
  }

type stats = {
  states_created : int;
  states_terminated : int;
  states_killed : int;
  forks : int;
  solver_calls : int;
  concretizations : int;
  wall_time_s : float;
  deadline_hit : bool;
}

type result = {
  states : Sym_state.t list;
  stats : stats;
  sched : Vsched.Exploration_stats.t;
  visited_functions : string list;
}

let sym_config_var reg name =
  let p = Vruntime.Config_registry.find reg name in
  name, Vruntime.Config_registry.sym_var p

let sym_workload_var tmpl name =
  let p = Vruntime.Workload.find_param tmpl name in
  name, Vruntime.Workload.sym_var p

(* ------------------------------------------------------------------ *)

type engine = {
  opts : options;
  program : Ast.program;
  armed : B.armed;
  ladder : D.controller;
  mutable next_id : int;
  mutable n_solver_calls : int;
  mutable n_concretizations : int;
  mutable finished : Sym_state.t list;  (* newest first *)
  mutable last_run_id : int;
  mutable picks_to_ckpt : int;
  (* effective knobs, tightened by the degradation ladder *)
  mutable eff_max_unroll : int;
  mutable eff_concretize_all : bool;
  rng : Random.State.t option;
  cache : Vsched.Solver_cache.t;
  visited : (string, unit) Hashtbl.t;
      (* every function *entered* on any path, live or dead — the dynamic
         coverage that scopes incremental invalidation.  Completed-row call
         chains are not enough: a path can enter a function and then die
         infeasible, yet its exploration already depended on that
         function's body. *)
  mutable stack : Sym_state.t list;
      (* the DFS frontier, top first: a fork runs its first child at once and
         pushes the second, so each state runs to completion before its
         sibling *)
  recorder : Vsched.Exploration_stats.recorder;
}

let fresh_id eng =
  let id = eng.next_id in
  eng.next_id <- id + 1;
  id

(* Fresh symbols are named after the creating state's fork path and its own
   symbol counter, so the name depends only on the path's execution history —
   not on the order states were explored in — and never collides across
   states. *)
let fresh_symbol (st : S.t) prefix =
  let n = st.S.next_symbol in
  let v =
    {
      E.name = Printf.sprintf "%s#%s:%d" prefix (Fork_path.to_string st.S.path) n;
      dom = Vsmt.Dom.int_range (-1048576) 1048576;
      origin = E.Internal;
    }
  in
  v, { st with S.next_symbol = n + 1 }

let jittered eng us =
  match eng.rng, eng.opts.noise with
  | Some rng, Some n when n.jitter > 0. ->
    us *. (1. +. (n.jitter *. ((Random.State.float rng 2.) -. 1.)))
  | _ -> us

(* Charge a cost to a state: logical metrics verbatim, latency inflated by
   the engine overhead (and jitter) on the [clock] used for timestamps. *)
let charge eng (st : S.t) ?(serial = false) (c : Vruntime.Cost.t) =
  let lat = jittered eng c.Vruntime.Cost.latency_us in
  let c = { c with Vruntime.Cost.latency_us = lat } in
  {
    st with
    S.cost = Vruntime.Cost.add st.S.cost c;
    serial_us = (st.S.serial_us +. if serial then lat else 0.);
    clock = st.S.clock +. (lat *. eng.opts.env.Vruntime.Hw_env.symexec_overhead);
  }

let emit eng (st : S.t) kind fname =
  if (not st.S.tracing) || not eng.opts.enable_tracer then st
  else begin
    match eng.opts.chaos with
    | Some c when Chaos.flip c c.Chaos.signal_drop_p ->
      (* chaos: the signal is emitted (the guest pays for it) but never
         reaches the tracer *)
      {
        st with
        S.next_cid = st.S.next_cid + 1;
        clock = st.S.clock +. eng.opts.env.Vruntime.Hw_env.tracer_signal_us;
      }
    | chaos ->
      let ts =
        match kind, eng.rng, eng.opts.noise with
        | Signals.Ret _, Some rng, Some n
          when n.signal_delay_prob > 0. && Random.State.float rng 1.0 < n.signal_delay_prob ->
          st.S.clock +. n.signal_delay_us
        | _ -> st.S.clock
      in
      let ts =
        match chaos with
        | Some c when Chaos.flip c c.Chaos.signal_delay_p -> ts +. c.Chaos.signal_delay_us
        | _ -> ts
      in
      let r = { Signals.kind; fname; ts; thread = st.S.thread; cid = st.S.next_cid } in
      {
        st with
        S.signals = r :: st.S.signals;
        next_cid = st.S.next_cid + 1;
        clock = st.S.clock +. eng.opts.env.Vruntime.Hw_env.tracer_signal_us;
      }
  end

let chaos_unknown eng =
  match eng.opts.chaos with
  | Some c -> Chaos.flip c c.Chaos.solver_unknown_p
  | None -> false

(* One call per *logical* query, whatever the slicer sent: [n_solver_calls]
   feeds the virtual-clock analysis cost in the impact model, so it must not
   depend on how many slices a query happened to split into. *)
let record_query eng ~pre ~sent =
  Vsched.Exploration_stats.on_query eng.recorder ~pre_constraints:(List.length pre)
    ~sent_constraints:(List.length sent)

(* Branch-feasibility query of the candidate path condition [pc].  With
   slicing on, only the slices sharing symbols with [fp], the branch
   condition's footprint, are sent.  Sound because every untouched slice is
   inherited from the (feasible) parent path condition, so it cannot flip
   the verdict; on an undecided (budget-bound) solver the sliced query can
   only be *more* decided, never wrongly Unsat. *)
let is_feasible eng pc fp =
  eng.n_solver_calls <- eng.n_solver_calls + 1;
  let sent = if eng.opts.slice then Vsmt.Partition.relevant pc fp else pc in
  record_query eng ~pre:pc ~sent;
  (* a chaos-forced Unknown over-approximates to feasible *)
  chaos_unknown eng || Vsched.Solver_cache.is_feasible eng.cache ~budget:eng.armed sent

(* Model-generation query.  With slicing on, each symbol-disjoint slice is
   solved independently and the per-slice models are concatenated and
   name-sorted.  Sound: slices share no symbols, so the union assignment
   satisfies every slice.  Deterministic: the solver visits variables in
   name order (see [Solver.check]), so the model it finds for a slice alone
   is the projection of the model it would find for the full conjunction —
   composing slices in canonical order and name-sorting reproduces the
   unsliced model byte for byte (on decisive queries; a budget-bound
   Unknown can differ, as with any budget change). *)
let model_of eng pc =
  eng.n_solver_calls <- eng.n_solver_calls + 1;
  (* every slice is solved, so the whole condition counts as sent *)
  record_query eng ~pre:pc ~sent:pc;
  if chaos_unknown eng then None
  else begin
    let check = Vsched.Solver_cache.check_model eng.cache ~budget:eng.armed in
    match if eng.opts.slice then Vsmt.Partition.slices pc else None with
    | Some slices ->
      let rec compose acc = function
        | [] -> Some (List.sort (fun (a, _) (b, _) -> String.compare a b) acc)
        | cs :: rest -> begin
          match check cs with
          | Vsmt.Solver.Sat m -> compose (m @ acc) rest
          | Vsmt.Solver.Unsat | Vsmt.Solver.Unknown -> None
        end
      in
      compose [] slices
    | None -> begin
      match check pc with
      | Vsmt.Solver.Sat m -> Some m
      | Vsmt.Solver.Unsat | Vsmt.Solver.Unknown -> None
    end
  end

(* ------------------------------------------------------------------ *)
(* Symbolic evaluation of IR expressions.                              *)
(* ------------------------------------------------------------------ *)

exception Stuck of string

let rec sym_eval eng (st : S.t) (e : Ast.expr) : E.t =
  match e with
  | Ast.Const v -> E.const v
  | Ast.Config n -> begin
    match List.assoc_opt n eng.opts.sym_configs with
    | Some v -> E.of_var v
    | None -> E.const (eng.opts.concrete_config n)
  end
  | Ast.Workload n -> begin
    match List.assoc_opt n eng.opts.sym_workloads with
    | Some v -> E.of_var v
    | None -> E.const (eng.opts.concrete_workload n)
  end
  | Ast.Local n -> begin
    match Sym_store.get_local st.S.store n with
    | Some v -> v
    | None -> raise (Stuck (Printf.sprintf "uninitialized local %s" n))
  end
  | Ast.Global n -> begin
    match Sym_store.get_global st.S.store n with
    | Some v -> v
    | None -> raise (Stuck (Printf.sprintf "unknown global %s" n))
  end
  | Ast.Not e -> E.not_ (sym_eval eng st e)
  | Ast.Neg e -> E.neg (sym_eval eng st e)
  | Ast.Binop (op, a, b) -> E.binop op (sym_eval eng st a) (sym_eval eng st b)
  | Ast.Ite (c, a, b) -> E.ite (sym_eval eng st c) (sym_eval eng st a) (sym_eval eng st b)

let sym_eval_simpl eng st e = Vsmt.Simplify.simplify (sym_eval eng st e)

(* Concretize a symbolic expression under the current path condition.
   Returns the concrete value and, per the consistency model, pins every
   symbolic variable occurring in [e]: adds [var == value] constraints
   (unless [add_constraint] is false, the relaxation-rule case) and
   substitutes the pinned variables through the store (concretizeAll). *)
let concretize eng (st : S.t) ~add_constraint e =
  eng.n_concretizations <- eng.n_concretizations + 1;
  match E.is_const e with
  | Some v -> v, st
  | None -> begin
    let vars = E.vars e in
    match model_of eng (st.S.pc @ [ E.tru ]) with
    | None ->
      (* path condition infeasible or unknown: fall back to domain minima *)
      let m = Vsmt.Solver.complete ~vars [] in
      (match Vsmt.Solver.eval_in m e with Some v -> v | None -> 0), st
    | Some m ->
      let m = Vsmt.Solver.complete ~vars m in
      let v = match Vsmt.Solver.eval_in m e with Some v -> v | None -> 0 in
      let pinned =
        List.filter_map
          (fun (var : E.var) ->
            match Vsmt.Solver.model_value m var.E.name with
            | Some x -> Some (var, x)
            | None -> None)
          vars
      in
      let subst (w : E.var) =
        List.find_map
          (fun ((var : E.var), x) ->
            if String.equal var.E.name w.E.name then Some (E.const x) else None)
          pinned
      in
      let store = Sym_store.substitute_everywhere st.S.store subst in
      let pc =
        if add_constraint then
          Vsmt.Simplify.simplify_conj
            (st.S.pc
            @ List.map (fun ((vr : E.var), x) -> E.binop E.Eq (E.of_var vr) (E.const x)) pinned)
        else st.S.pc
      in
      v, { st with S.store; pc }
  end

(* ------------------------------------------------------------------ *)
(* Stepping                                                            *)
(* ------------------------------------------------------------------ *)

type step_result =
  | One of S.t
  | Two of S.t * S.t  (** fork *)
  | Done of S.t  (** reached a terminal status *)

let kill st reason = Done { st with S.status = S.Killed reason }

(* Unwind the work stack to the nearest [Kret]; emit the return signal and
   bind the returned value.  [None] work means the entry returned. *)
let do_return eng (st : S.t) value =
  let rec unwind work =
    match work with
    | [] -> None
    | S.Kret { dest; fname; ret_addr } :: rest -> Some (dest, fname, ret_addr, rest)
    | (S.Kstmts _ | S.Kloop _) :: rest -> unwind rest
  in
  match unwind st.S.work with
  | None -> Done { st with S.status = S.Terminated value; work = [] }
  | Some (dest, fname, ret_addr, rest) ->
    let st = emit eng st (Signals.Ret { ret_addr }) fname in
    let st = { st with S.store = Sym_store.pop_frame st.S.store; work = rest } in
    if rest = [] then
      (* the entry function returned: keep its value as the path's result *)
      Done { st with S.status = S.Terminated value }
    else begin
      let st =
        match dest with
        | Some d ->
          let v = match value with Some v -> v | None -> E.const 0 in
          { st with S.store = Sym_store.set_local st.S.store d v }
        | None -> st
      in
      One st
    end

let enter_function eng (st : S.t) ~dest ~ret_addr (f : Ast.func) args =
  Hashtbl.replace eng.visited f.Ast.fname ();
  let st = emit eng st (Signals.Call { eip = f.Ast.addr; ret_addr }) f.Ast.fname in
  let store = Sym_store.push_frame st.S.store in
  let store =
    List.fold_left
      (fun store (i, name) ->
        let v = try List.nth args i with Failure _ | Invalid_argument _ -> E.const 0 in
        Sym_store.set_local store name v)
      store
      (List.mapi (fun i n -> i, n) f.Ast.params)
  in
  {
    st with
    S.store;
    work = S.Kstmts (Ast.func_body f) :: S.Kret { dest; fname = f.Ast.fname; ret_addr } :: st.S.work;
  }

let call_library eng (st : S.t) ~dest ~ret_addr (f : Ast.func) lib args =
  Hashtbl.replace eng.visited f.Ast.fname ();
  let st = emit eng st (Signals.Call { eip = f.Ast.addr; ret_addr }) f.Ast.fname in
  let effect, semantics, cost =
    match (lib : Ast.fkind) with
    | Ast.Library { effect; semantics; cost } -> effect, semantics, cost
    | Ast.Defined _ -> assert false
  in
  let st =
    List.fold_left (fun st (p, m) -> charge eng st (Vruntime.Hw_env.cost_of_prim eng.opts.env p m)) st cost
  in
  let all_const = List.for_all (fun a -> E.is_const a <> None) args in
  let ret_value, st =
    if all_const then begin
      let vals = List.map (fun a -> match E.is_const a with Some v -> v | None -> 0) args in
      E.const (semantics vals), st
    end
    else begin
      (* degradation rung 2 forces [concretizeAll] semantics on every call *)
      let effective =
        if eng.opts.relaxation_rules && not eng.eff_concretize_all then effect
        else Ast.Effectful
      in
      match effective with
      | Ast.Pure ->
        (* relaxation rule 1: no side effect; keep args symbolic, return a
           fresh symbol, no concretization constraint *)
        let v, st = fresh_symbol st f.Ast.fname in
        E.of_var v, st
      | Ast.Benign | Ast.Effectful ->
        let add_constraint = effective = Ast.Effectful in
        let vals, st =
          List.fold_left
            (fun (vals, st) a ->
              let v, st = concretize eng st ~add_constraint a in
              vals @ [ v ], st)
            ([], st) args
        in
        E.const (semantics vals), st
    end
  in
  let st = emit eng st (Signals.Ret { ret_addr }) f.Ast.fname in
  match dest with
  | Some d -> { st with S.store = Sym_store.set_local st.S.store d ret_value }
  | None -> st

let exec_branch eng (st : S.t) cond ~on_true ~on_false =
  let c = sym_eval_simpl eng st cond in
  match E.is_const c with
  | Some v -> One (if v <> 0 then on_true st else on_false st)
  | None -> begin
    let pc_true = Vsmt.Simplify.simplify_conj (st.S.pc @ [ c ]) in
    let pc_false = Vsmt.Simplify.simplify_conj (st.S.pc @ [ E.not_ c ]) in
    (* both sides share the branch condition's footprint ([not_ c] reads the
       same symbols), and it covers every conjunct simplification can derive
       from [c], so it bounds the slices either side's verdict depends on *)
    let fp = Vsmt.Footprint.of_expr c in
    let can_fork = eng.next_id < eng.opts.budget.B.max_states in
    let t_ok = is_feasible eng pc_true fp in
    let f_ok = is_feasible eng pc_false fp in
    match t_ok, f_ok with
    | true, false -> One (on_true { st with S.pc = pc_true })
    | false, true -> One (on_false { st with S.pc = pc_false })
    | false, false -> kill st "infeasible path condition"
    | true, true ->
      if can_fork then begin
        Vsched.Exploration_stats.on_fork eng.recorder;
        let st_t =
          {
            st with
            S.id = fresh_id eng;
            parent = Some st.S.id;
            path = Fork_path.extend st.S.path 't';
            pc = pc_true;
          }
        in
        let st_f =
          {
            st with
            S.id = fresh_id eng;
            parent = Some st.S.id;
            path = Fork_path.extend st.S.path 'f';
            pc = pc_false;
          }
        in
        Two (on_true st_t, on_false st_f)
      end
      else
        (* state cap reached: concretize the branch like a silent
           concretization and continue down one side *)
        One (on_true { st with S.pc = pc_true })
  end

let step eng (st : S.t) : step_result =
  if st.S.fuel <= 0 then kill st "out of fuel"
  else begin
    Vsched.Exploration_stats.on_step eng.recorder;
    let st = { st with S.fuel = st.S.fuel - 1 } in
    let st = charge eng st (Vruntime.Hw_env.statement_cost eng.opts.env) in
    match st.S.work with
    | [] -> Done { st with S.status = S.Terminated None }
    | S.Kret _ :: _ -> do_return eng st None  (* function body fell through *)
    | S.Kloop { cond; body; iter } :: rest ->
      if iter >= eng.eff_max_unroll then begin
        (* force loop exit if feasible, else kill: bounded unrolling *)
        let c = sym_eval_simpl eng st cond in
        match E.is_const c with
        | Some v when v <> 0 -> kill st "loop unroll limit"
        | Some _ -> One { st with S.work = rest }
        | None ->
          let pc_false = Vsmt.Simplify.simplify_conj (st.S.pc @ [ E.not_ c ]) in
          if is_feasible eng pc_false (Vsmt.Footprint.of_expr c) then
            One { st with S.pc = pc_false; work = rest }
          else kill st "loop unroll limit"
      end
      else
        exec_branch eng st cond
          ~on_true:(fun st ->
            {
              st with
              S.work = S.Kstmts body :: S.Kloop { cond; body; iter = iter + 1 } :: rest;
            })
          ~on_false:(fun st -> { st with S.work = rest })
    | S.Kstmts [] :: rest -> One { st with S.work = rest }
    | S.Kstmts (stmt :: tail) :: rest -> begin
      let st = { st with S.work = S.Kstmts tail :: rest } in
      match stmt with
      | Ast.Assign (Ast.Lv_local n, e) ->
        let v = sym_eval_simpl eng st e in
        One { st with S.store = Sym_store.set_local st.S.store n v }
      | Ast.Assign (Ast.Lv_global n, e) ->
        let v = sym_eval_simpl eng st e in
        One { st with S.store = Sym_store.set_global st.S.store n v }
      | Ast.If (c, th, el) ->
        exec_branch eng st c
          ~on_true:(fun st -> { st with S.work = S.Kstmts th :: st.S.work })
          ~on_false:(fun st -> { st with S.work = S.Kstmts el :: st.S.work })
      | Ast.While (c, body) ->
        One { st with S.work = S.Kloop { cond = c; body; iter = 0 } :: st.S.work }
      | Ast.Call { dest; fn; args; ret_addr } -> begin
        let f = Ast.find_func eng.program fn in
        let args = List.map (sym_eval_simpl eng st) args in
        match f.Ast.kind with
        | Ast.Defined _ -> One (enter_function eng st ~dest ~ret_addr f args)
        | Ast.Library _ ->
          let ok = call_library eng st ~dest ~ret_addr f f.Ast.kind args in
          (* Section 8: specious configuration used only in error handling
             needs faults to surface; fault injection forks a state where
             the library call fails with -1 *)
          if eng.opts.fault_injection && dest <> None
             && eng.next_id < eng.opts.budget.B.max_states
          then begin
            Vsched.Exploration_stats.on_fork eng.recorder;
            let failed =
              let st = emit eng st (Signals.Call { eip = f.Ast.addr; ret_addr }) f.Ast.fname in
              let st = emit eng st (Signals.Ret { ret_addr }) f.Ast.fname in
              match dest with
              | Some d ->
                { st with
                  S.id = fresh_id eng;
                  parent = Some st.S.id;
                  path = Fork_path.extend st.S.path 'x';
                  store = Sym_store.set_local st.S.store d (E.const (-1));
                }
              | None -> st
            in
            Two
              ( {
                  ok with
                  S.id = fresh_id eng;
                  parent = Some st.S.id;
                  path = Fork_path.extend st.S.path 's';
                },
                failed )
          end
          else One ok
      end
      | Ast.Return e ->
        let v = Option.map (sym_eval_simpl eng st) e in
        do_return eng st v
      | Ast.Prim (p, args) -> begin
        let magnitude, st =
          match args with
          | [] -> 1, st
          | a :: _ -> begin
            let e = sym_eval_simpl eng st a in
            match E.is_const e with
            | Some v -> v, st
            | None ->
              (* cost magnitudes are concretized without constraining the
                 path: an approximation of the engine's cost accounting,
                 documented in DESIGN.md *)
              concretize eng st ~add_constraint:false e
          end
        in
        let c = Vruntime.Hw_env.cost_of_prim eng.opts.env p magnitude in
        One (charge eng st ~serial:(Vruntime.Concrete_exec.is_serial_prim p) c)
      end
      | Ast.Thread n -> One { st with S.thread = n }
      | Ast.Trace_on -> One { st with S.tracing = true }
      | Ast.Trace_off -> One { st with S.tracing = false }
    end
  end

(* ------------------------------------------------------------------ *)
(* Scheduling loop                                                     *)
(* ------------------------------------------------------------------ *)

(* kill reasons the pipeline recognizes as budget-induced drops; such states
   become dropped-path entries in the model's degradation summary *)
let budget_kill_prefix = "budget:"
let deadline_reason = budget_kill_prefix ^ " deadline"
let degraded_drop_reason = budget_kill_prefix ^ " degraded frontier drop"

let is_budget_kill reason =
  String.length reason >= String.length budget_kill_prefix
  && String.sub reason 0 (String.length budget_kill_prefix) = budget_kill_prefix

let finish_state eng (st : S.t) =
  ES.on_complete eng.recorder
    ~dropped:
      (match st.S.status with
      | S.Killed _ -> true
      | S.Terminated _ -> false
      | S.Running -> assert false);
  eng.finished <- st :: eng.finished

let drop_state eng (st : S.t) reason =
  finish_state eng { st with S.status = S.Killed reason }

let drain_frontier eng reason =
  let states = eng.stack in
  eng.stack <- [];
  List.iter (fun st -> drop_state eng st reason) states

let visited_list eng =
  Hashtbl.fold (fun f () acc -> f :: acc) eng.visited [] |> List.sort String.compare

let snapshot_of eng =
  {
    snap_program = eng.program.Ast.pname;
    snap_next_state_id = eng.next_id;
    snap_n_solver_calls = eng.n_solver_calls;
    snap_n_concretizations = eng.n_concretizations;
    snap_last_run_id = eng.last_run_id;
    snap_finished = eng.finished;
    snap_frontier = eng.stack;
    snap_noise_rng = Option.map Random.State.copy eng.rng;
    snap_recorder = ES.copy eng.recorder;
    snap_degradation = D.events eng.ladder;
    snap_visited = visited_list eng;
  }

(* version 7: states lost their path-condition partition, and the fork and
   finished-state counters live in the recorder alone;
   version 6: the recorder lost its tree-node sums and histograms;
   version 5: the frontier is the plain DFS stack, and the searcher name and
   solver-cache contents are gone; version 4: added [snap_visited] (dynamic
   function coverage for incremental invalidation); version 3:
   Sym_state.path became the structured [Fork_path.t] (version 2 introduced
   [path]/[next_symbol] as a flat string) *)
let snapshot_version = 7
let snapshot_kind = "executor-frontier"

let save_snapshot ~path snap =
  Vresilience.Checkpoint.write ~path ~kind:snapshot_kind ~version:snapshot_version
    (Marshal.to_string snap [])

(* Marshalled expressions carry the hashcons ids of the process that wrote
   the snapshot; re-intern every expression so they can be mixed with this
   process's. *)
let rehash_snapshot snap =
  let rs = S.map_exprs E.rehash in
  {
    snap with
    snap_finished = List.map rs snap.snap_finished;
    snap_frontier = List.map rs snap.snap_frontier;
  }

let load_snapshot ~path =
  match Vresilience.Checkpoint.read ~path ~kind:snapshot_kind ~version:snapshot_version with
  | Error e -> Error e
  | Ok (payload, _) -> begin
    match (Marshal.from_string payload 0 : snapshot) with
    | snap -> Ok (rehash_snapshot snap)
    | exception _ -> Error Vresilience.Checkpoint.Corrupt
  end

(* entering a degradation rung tightens the engine's effective knobs *)
let tighten_knobs eng (rung : D.rung) =
  match rung with
  | D.Full -> ()
  | D.Reduced_unroll ->
    eng.eff_max_unroll <- min eng.eff_max_unroll (max 2 (eng.opts.max_loop_unroll / 8))
  | D.Concretize_all -> eng.eff_concretize_all <- true
  | D.Drop_states ->
    (* picks come from the top of the stack, so the bottom is the
       lowest-priority end: keep the top [keep] states *)
    let len = List.length eng.stack in
    let keep =
      max 1
        (int_of_float
           (ceil (float_of_int len *. eng.opts.degradation.D.drop_keep_fraction)))
    in
    if len > keep then begin
      let kept = List.filteri (fun i _ -> i < keep) eng.stack in
      let dropped = List.filteri (fun i _ -> i >= keep) eng.stack in
      eng.stack <- kept;
      List.iter (fun st -> drop_state eng st degraded_drop_reason) dropped
    end

(* ------------------------------------------------------------------ *)
(* Engine construction and the deterministic reduction                 *)
(* ------------------------------------------------------------------ *)

let make_engine ~armed ~recorder opts program =
  {
    opts;
    program;
    armed;
    ladder = D.controller opts.degradation;
    next_id = 1 (* the root state is 0 *);
    n_solver_calls = 0;
    n_concretizations = 0;
    finished = [];
    last_run_id = -1;
    picks_to_ckpt = 0;
    eff_max_unroll = opts.max_loop_unroll;
    eff_concretize_all = false;
    rng = Option.map (fun n -> Random.State.make [| n.seed |]) opts.noise;
    cache = Vsched.Solver_cache.create ~max_nodes:opts.budget.B.solver_max_nodes ();
    visited = Hashtbl.create 64;
    stack = [];
    recorder;
  }

let root_state eng program opts =
  let entry = Ast.find_func program program.Ast.entry in
  (* tracing starts disabled only when a reachable Trace_on hook will
     turn it on later (Section 5.3, optimization 1) *)
  let reachable =
    Vir.Callgraph.reachable (Vir.Callgraph.build program) ~from:program.Ast.entry
  in
  let has_trace_on =
    List.exists
      (fun (f : Ast.func) ->
        List.mem f.Ast.fname reachable
        &&
        let found = ref false in
        Ast.iter_stmts
          (function Ast.Trace_on -> found := true | _ -> ())
          (Ast.func_body f);
        !found)
      program.Ast.funcs
  in
  let root_ret_addr = 0x10 in
  let st0 =
    S.initial ~id:0
      ~store:(Sym_store.with_globals program.Ast.globals)
      ~work:[] ~fuel:opts.budget.B.fuel ~tracing:(not has_trace_on)
  in
  enter_function eng st0 ~dest:None ~ret_addr:root_ret_addr entry []

(* The deterministic reduction: finished states are sorted by fork path
   (unique, scheduling-independent) and renumbered 0..n-1 in that order, so
   the state ids that appear in the serialized impact model — rows, pairs,
   dropped paths — do not depend on the order they were explored in.
   Parent pointers refer to pre-fork states that never reach the finished
   list, so lineage collapses to [None] uniformly. *)
let canonicalize_states finished =
  let sorted =
    List.stable_sort (fun (a : S.t) b -> Fork_path.compare a.S.path b.S.path) finished
  in
  let remap = Hashtbl.create (List.length sorted * 2) in
  List.iteri (fun i (st : S.t) -> Hashtbl.replace remap st.S.id i) sorted;
  List.mapi
    (fun i (st : S.t) ->
      { st with S.id = i; parent = Option.bind st.S.parent (Hashtbl.find_opt remap) })
    sorted

(* ------------------------------------------------------------------ *)
(* Sequential driver                                                   *)
(* ------------------------------------------------------------------ *)

(* Install a checkpoint's engine state; the recorder is installed at
   construction. *)
let restore_snapshot eng s =
  eng.next_id <- s.snap_next_state_id;
  eng.n_solver_calls <- s.snap_n_solver_calls;
  eng.n_concretizations <- s.snap_n_concretizations;
  eng.finished <- s.snap_finished;
  eng.last_run_id <- s.snap_last_run_id;
  List.iter (fun f -> Hashtbl.replace eng.visited f ()) s.snap_visited;
  eng.stack <- s.snap_frontier;
  D.restore eng.ladder s.snap_degradation;
  (* re-derive the effective knobs from the restored ladder position
     (frontier drops already happened before the snapshot) *)
  List.iter
    (fun (ev : D.event) ->
      match ev.D.rung with
      | D.Drop_states -> ()
      | rung -> tighten_knobs eng rung)
    s.snap_degradation

(* Pop the top state, run it until it terminates (pushing the second child
   of every fork), repeat until the stack drains; returns whether the
   deadline cut exploration short. *)
let explore eng =
  let opts = eng.opts in
  let deadline_hit = ref false in
  let switch_cost (st : S.t) =
    if opts.state_switching && eng.last_run_id <> st.S.id && eng.last_run_id >= 0 then
      { st with S.clock = st.S.clock +. opts.env.Vruntime.Hw_env.state_switch_us }
    else st
  in
  let maybe_checkpoint () =
    match opts.on_checkpoint with
    | Some hook when opts.checkpoint_every > 0 ->
      eng.picks_to_ckpt <- eng.picks_to_ckpt + 1;
      if eng.picks_to_ckpt >= opts.checkpoint_every then begin
        eng.picks_to_ckpt <- 0;
        hook (snapshot_of eng)
      end
    | _ -> ()
  in
  let rec run_state st =
    if B.expired eng.armed then begin
      deadline_hit := true;
      drop_state eng st deadline_reason
    end
    else begin
      match
        try step eng st
        with Stuck reason -> Done { st with S.status = S.Killed ("stuck: " ^ reason) }
      with
      | One st -> run_state st
      | Two (a, b) ->
        (* run the first child now; push the second *)
        eng.stack <- b :: eng.stack;
        run_state a
      | Done st -> finish_state eng st
    end
  in
  let rec drive () =
    if B.expired eng.armed then begin
      deadline_hit := true;
      drain_frontier eng deadline_reason
    end
    else begin
      List.iter
        (fun (ev : D.event) ->
          ES.on_degrade eng.recorder ev;
          tighten_knobs eng ev.D.rung)
        (D.observe eng.ladder ~pressure:(B.pressure eng.armed) ~step:(ES.steps eng.recorder));
      maybe_checkpoint ();
      match eng.stack with
      | [] -> ()
      | st :: rest ->
        eng.stack <- rest;
        let st = switch_cost st in
        eng.last_run_id <- st.S.id;
        run_state st;
        drive ()
    end
  in
  drive ();
  !deadline_hit

let run ?resume opts program =
  begin
    match resume with
    | Some s when not (String.equal s.snap_program program.Ast.pname) ->
      invalid_arg
        (Printf.sprintf "Executor.run: snapshot is for program %S, not %S" s.snap_program
           program.Ast.pname)
    | _ -> ()
  end;
  let t0 = opts.budget.B.now () in
  let armed = B.arm opts.budget in
  let recorder =
    match resume with Some s -> ES.resume s.snap_recorder | None -> ES.recorder ()
  in
  let eng = make_engine ~armed ~recorder opts program in
  (* the entry function is entered by construction, not via a Call *)
  Hashtbl.replace eng.visited program.Ast.entry ();
  begin
    match resume with
    | Some s -> restore_snapshot eng s
    | None -> eng.stack <- [ root_state eng program opts ]
  end;
  let deadline_hit = explore eng in
  let states = canonicalize_states (List.rev eng.finished) in
  let wall_time_s = opts.budget.B.now () -. t0 in
  let sched =
    ES.finish ~deadline_hit eng.recorder ~states_created:eng.next_id
      ~solver_queries:eng.n_solver_calls ~cache:(Vsched.Solver_cache.stats eng.cache)
      ~wall_time_s
  in
  {
    states;
    visited_functions = visited_list eng;
    stats =
      {
        states_created = eng.next_id;
        states_terminated = sched.ES.states_completed;
        states_killed = sched.ES.states_dropped;
        forks = sched.ES.forks;
        solver_calls = eng.n_solver_calls;
        concretizations = eng.n_concretizations;
        wall_time_s;
        deadline_hit;
      };
    sched;
  }
