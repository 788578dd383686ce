module M = Impact_model
module Row = Cost_row
module Expr = Vsmt.Expr
module Iset = Vsmt.Iset

(* One decidable configuration (or workload) constraint:
   - [D_iset]: single-variable constraints on one parameter, merged into one
     interval set (the conjunction is the intersection of truth sets); the
     original exprs are kept for the exact out-of-domain evaluation path;
   - [D_eval]: a multi-variable constraint closed by direct evaluation once
     every variable is bound (Simplify folds variable-free expressions
     completely, so evaluation equals the substitute-and-simplify path). *)
type decision =
  | D_iset of {
      name : string;
      dom : Vsmt.Dom.t;
      allowed : Iset.t;
      exprs : Expr.t list;
    }
  | D_eval of { names : string list; expr : Expr.t }

(* Rows with the identical ordered constraint list share one class, and a
   plan is a function of that list alone, so each class holds one. *)
type row_plan = {
  row : Row.t;
  idx : int;  (** position in model row order *)
  cclass : int;  (** config-constraint class index *)
  wclass : int;  (** workload-predicate class index *)
}

type stats = { rows_closed : int; rows_open : int; compile_s : float }

(* One candidate pool the witness scan has seen.  Every slow row of one
   check scans the same pool, and checks of a configuration seen before
   scan the same pool content, so witnesses are memoized per pool: a
   reader validates element-wise physical identity of the candidates,
   which with the cap, the slow row and the gate flag pins every input of
   the scan. *)
type pool = {
  p_id : int;  (** never reused, so a witness keyed by it stays exact *)
  p_rows : Row.t list;  (** the exact list this pool was first seen as *)
  p_cap : int;
}

type t = {
  cm_model : M.t;
  plans : row_plan array;  (** in model row order *)
  config_plans : decision array array;  (** per config class *)
  name_sets : (string, unit) Hashtbl.t array;
      (** per config class, the distinct config-constraint vars *)
  workload_plans : decision array option array;
      (** per workload class, built on first use: only workload-change
          checks read them *)
  by_id : (int, row_plan) Hashtbl.t;
  poor_ids : (int, unit) Hashtbl.t;
  first_pair : (int * int, M.poor_pair_summary) Hashtbl.t;
  joint_memo : (int * int, bool) Hashtbl.t;
      (** wclass pair -> feasible, filled on first query per class pair
          (the budget is pinned and the solver deterministic, so the first
          answer is the answer) *)
  verdict_memo : (int * int, (float * string * string list) option) Hashtbl.t;
      (** (slow id, fast id) -> [judge], filled on first query *)
  match_memo : ((string * int) list, Row.t list) Hashtbl.t;
      (** assignment content -> matching rows; the decision plans (and their
          solver fallbacks) are deterministic in the assignment, so repeated
          configurations are one bounded-table lookup *)
  wmatch_memo : ((string * int) list, Row.t list) Hashtbl.t;
  content_rank : int array Lazy.t;
      (** per row idx, the dense rank of its {!Cost_row.content_key} under
          [String.compare], computed on first use *)
  pools : (int, pool) Hashtbl.t;  (** hash of the candidates' state ids -> pools *)
  mutable last_pool : pool option;  (** the pool the last query scanned *)
  mutable next_pool : int;
  witness_memo : (int * int, (Row.t * (float * string * string list)) option) Hashtbl.t;
      (** (pool id, 2 * slow idx + joint gate) -> first surviving candidate:
          at most two per slow row and pool *)
  cm_stats : stats;
}

let model t = t.cm_model
let stats t = t.cm_stats

(* ------------------------------------------------------------------ *)
(* The checker's decisions, computed live                              *)
(* ------------------------------------------------------------------ *)

(* Each decision of the checker's witness scan is defined once, here: the
   solver engine computes them live on every query, and the compiled paths
   below memoize or materialize these same functions. *)

let joint_input_budget = 1_000

(* The joint-input gate: one input class must trigger both states
   (Section 4.6), so their workload predicates must be jointly feasible. *)
let joint_input_feasible ~(slow : Row.t) ~(fast : Row.t) =
  Vsmt.Solver.is_feasible ~max_nodes:joint_input_budget
    (slow.Row.workload_pred @ fast.Row.workload_pred)

(* The post-gate judgement for an ordered pair: the first recorded poor
   pair if any, else the differential comparison. *)
let judge (m : M.t) (recorded : M.poor_pair_summary option) ~(slow : Row.t) ~(fast : Row.t) =
  match recorded with
  | Some p -> Some (p.M.latency_ratio, p.M.trigger, p.M.critical_path)
  | None -> begin
    match Diff_analysis.compare_pair ~threshold:m.M.threshold ~slow ~fast with
    | Some (worst, triggers) ->
      let diff = Critical_path.differential ~slow ~fast in
      Some
        (1. +. worst, Diff_analysis.trigger_label triggers, diff.Critical_path.critical_path)
    | None -> None
  end

(* The comparison order's key: most-comparable rows first, i.e. same input
   class, then configuration similarity, both descending: the shared
   constraint counts the trace diff ranks by. *)
let comparison_key (slow : Row.t) (r : Row.t) =
  (Similarity.workload_score slow r, Similarity.score slow r)

let descending (wa, ca) (wb, cb) = if wa <> wb then Int.compare wb wa else Int.compare cb ca

(* The comparison order: drop candidates sharing the slow row's state id,
   stable-sort the rest by descending key, keep the first [cap]. *)
let live_order ~cap ~(slow : Row.t) rows =
  rows
  |> List.filter (fun (r : Row.t) -> r.Row.state_id <> slow.Row.state_id)
  |> List.map (fun r -> (comparison_key slow r, r))
  |> List.stable_sort (fun (ka, _) (kb, _) -> descending ka kb)
  |> List.filteri (fun i _ -> i < cap)
  |> List.map snd

(* The witness scan over an ordered candidate list: the first candidate
   that passes the gate (when required) and yields a verdict. *)
let scan ~require_joint_input ~gate ~verdict order =
  List.find_map
    (fun fast ->
      if require_joint_input && not (gate fast) then None
      else Option.map (fun v -> (fast, v)) (verdict fast))
    order

let live_witness (m : M.t) ~cap ~require_joint_input ~slow rows =
  scan ~require_joint_input
    ~gate:(fun fast -> joint_input_feasible ~slow ~fast)
    ~verdict:(fun fast ->
      let recorded = match M.pairs_between m ~slow ~fast with p :: _ -> Some p | [] -> None in
      judge m recorded ~slow ~fast)
    (live_order ~cap ~slow rows)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let plan_of_constraints constraints =
  let singles, rest = Iset.split constraints in
  let iset ((v : Expr.var), allowed, exprs) =
    D_iset { name = v.Expr.name; dom = v.Expr.dom; allowed; exprs }
  in
  let eval c =
    D_eval { names = List.map (fun (v : Expr.var) -> v.Expr.name) (Expr.vars c); expr = c }
  in
  Array.of_list (List.map iset singles @ List.map eval rest)

let names_of_constraints constraints =
  let set = Hashtbl.create 8 in
  List.iter
    (fun c ->
      List.iter (fun (v : Expr.var) -> Hashtbl.replace set v.Expr.name ()) (Expr.vars c))
    constraints;
  set

(* a row is expected to close when its config constraints mention only
   configuration symbols — anything else needs values the config assignment
   cannot bind, i.e. the solver fallback *)
let closes constraints =
  List.for_all
    (fun c -> Vsmt.Footprint.for_all_origin Expr.Config (Vsmt.Footprint.of_expr c))
    constraints

(* Dense ranks: equal keys share a rank and the rank order is the key
   order, so a stable sort by rank is exactly a stable sort by key. *)
let content_rank_of rows =
  let keys = Array.map Row.content_key rows in
  let rank_of = Hashtbl.create (Array.length keys) in
  List.iteri
    (fun r k -> Hashtbl.replace rank_of k r)
    (List.sort_uniq String.compare (Array.to_list keys));
  Array.map (Hashtbl.find rank_of) keys

let class_count cls = Array.fold_left max (-1) cls + 1

(* Linear in rows and free of solver queries: every pairwise structure
   below (joint feasibility, verdicts, witnesses per pool) fills on first
   use, and each entry is deterministic, so memoizing it is exact. *)
let compile (m : M.t) =
  let t0 = Unix.gettimeofday () in
  let rows = Array.of_list m.M.rows in
  let n = Array.length rows in
  (* rows sharing the identical ordered constraint list share a class:
     their plans are equal, and workload classes also produce identical
     joint-input queries *)
  let classes f = Diff_analysis.classes (Array.map (fun r -> List.map Expr.id (f r)) rows) in
  let cclass = classes (fun (r : Row.t) -> r.Row.config_constraints) in
  let wclass = classes (fun (r : Row.t) -> r.Row.workload_pred) in
  (* each config class's constraints, from its first row *)
  let class_constraints =
    let out = Array.make (class_count cclass) [] in
    Array.iteri (fun i c -> if out.(c) = [] then out.(c) <- rows.(i).Row.config_constraints) cclass;
    out
  in
  let plans =
    Array.mapi (fun idx row -> { row; idx; cclass = cclass.(idx); wclass = wclass.(idx) }) rows
  in
  let by_id = Hashtbl.create (max 8 n) in
  Array.iter (fun p -> Hashtbl.replace by_id p.row.Row.state_id p) plans;
  let poor_ids = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace poor_ids id ()) m.M.poor_state_ids;
  (* first poor pair per (slow, fast) — [pairs_between] keeps list order and
     the checker takes the head, so only the first occurrence is recorded *)
  let first_pair = Hashtbl.create 8 in
  List.iter
    (fun (p : M.poor_pair_summary) ->
      let key = (p.M.slow_id, p.M.fast_id) in
      if not (Hashtbl.mem first_pair key) then Hashtbl.replace first_pair key p)
    m.M.poor_pairs;
  let class_closes = Array.map closes class_constraints in
  let closed = Array.fold_left (fun acc c -> acc + if class_closes.(c) then 1 else 0) 0 cclass in
  {
    cm_model = m;
    plans;
    config_plans = Array.map plan_of_constraints class_constraints;
    name_sets = Array.map names_of_constraints class_constraints;
    workload_plans = Array.make (class_count wclass) None;
    by_id;
    poor_ids;
    first_pair;
    joint_memo = Hashtbl.create 64;
    verdict_memo = Hashtbl.create 64;
    match_memo = Hashtbl.create 16;
    wmatch_memo = Hashtbl.create 16;
    content_rank = lazy (content_rank_of rows);
    pools = Hashtbl.create 16;
    last_pool = None;
    next_pool = 0;
    witness_memo = Hashtbl.create 64;
    cm_stats =
      { rows_closed = closed; rows_open = n - closed; compile_s = Unix.gettimeofday () -. t0 };
  }

(* ------------------------------------------------------------------ *)
(* Query paths                                                         *)
(* ------------------------------------------------------------------ *)

(* Deciding one constraint under a bound assignment.  [None] = some variable
   is unbound, so the residual is open and the row must go to the solver. *)
let decide lookup = function
  | D_iset { name; dom; allowed; exprs } -> begin
    match lookup name with
    | None -> None
    | Some x ->
      if Vsmt.Dom.mem dom x then Some (Iset.mem x allowed)
      else
        (* out-of-domain values (possible for workload assignments) are
           outside the compiled truth set; evaluate the exprs directly *)
        Some (List.for_all (fun e -> Expr.eval (fun _ -> x) e <> 0) exprs)
  end
  | D_eval { names; expr } ->
    if List.for_all (fun nm -> lookup nm <> None) names then
      Some
        (Expr.eval
           (fun (v : Expr.var) ->
             match lookup v.Expr.name with Some x -> x | None -> 0)
           expr
        <> 0)
    else None

(* Exact replication of [Cost_row.all_satisfied]: every decided constraint
   must hold; the first open (unbound) constraint sends the whole row to the
   reference implementation, whose joint residual feasibility check we must
   not approximate.  A decided-false answer short-circuits soundly: the
   reference also fails on any false decided residual regardless of the open
   ones. *)
let matches_with ~fallback lookup plan row assignment =
  let n = Array.length plan in
  let rec go i =
    if i >= n then true
    else
      match decide lookup plan.(i) with
      | Some true -> go (i + 1)
      | Some false -> false
      | None -> fallback row assignment
  in
  go 0

(* bounded memo around a deterministic function of the key; reset rather
   than evict when full (steady-state serving touches a handful of keys, the
   bound only guards pathological churn) *)
let memoized tbl ~cap key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = f () in
    if Hashtbl.length tbl >= cap then Hashtbl.reset tbl;
    Hashtbl.replace tbl key v;
    v

let lookup_of assignment =
  let tbl = Hashtbl.create (max 8 (List.length assignment)) in
  (* first binding wins, like List.assoc_opt *)
  List.iter
    (fun (k, v) -> if not (Hashtbl.mem tbl k) then Hashtbl.replace tbl k v)
    assignment;
  fun name -> Hashtbl.find_opt tbl name

(* The rows whose class plan the assignment satisfies, in model order.
   The verdict (and its solver fallback) depends only on the class's
   constraints, so each class is decided once per assignment. *)
let matching t ~class_of ~plan_of ~fallback nclasses assignment =
  let lookup = lookup_of assignment in
  let verdict = Bytes.make nclasses '\000' in
  Array.to_list t.plans
  |> List.filter_map (fun p ->
         let c = class_of p in
         if Bytes.get verdict c = '\000' then
           Bytes.set verdict c
             (if matches_with ~fallback lookup (plan_of p) p.row assignment then '\002'
              else '\001');
         if Bytes.get verdict c = '\002' then Some p.row else None)

let rows_matching t assignment =
  memoized t.match_memo ~cap:256 assignment (fun () ->
      matching t
        ~class_of:(fun p -> p.cclass)
        ~plan_of:(fun p -> t.config_plans.(p.cclass))
        ~fallback:(fun r a -> Row.satisfied_by r a)
        (Array.length t.config_plans) assignment)

let workload_plan t p =
  match t.workload_plans.(p.wclass) with
  | Some plan -> plan
  | None ->
    let plan = plan_of_constraints p.row.Row.workload_pred in
    t.workload_plans.(p.wclass) <- Some plan;
    plan

let rows_matching_workload t assignment =
  memoized t.wmatch_memo ~cap:256 assignment (fun () ->
      matching t
        ~class_of:(fun p -> p.wclass)
        ~plan_of:(workload_plan t)
        ~fallback:(fun r a -> Row.workload_satisfied_by r a)
        (Array.length t.workload_plans) assignment)

let mentions t (row : Row.t) params =
  match Hashtbl.find_opt t.by_id row.Row.state_id with
  | Some p -> List.exists (fun nm -> Hashtbl.mem t.name_sets.(p.cclass) nm) params
  | None -> Row.mentions row params (* not a model row (defensive) *)

let is_poor_row t (row : Row.t) = Hashtbl.mem t.poor_ids row.Row.state_id

(* the plan of [row] when it is physically this model's row *)
let own_plan t (row : Row.t) =
  match Hashtbl.find_opt t.by_id row.Row.state_id with
  | Some p when p.row == row -> Some p
  | _ -> None

let content_order t rows =
  let rank = Lazy.force t.content_rank in
  let rec decorate acc = function
    | [] -> Some (List.rev acc)
    | r :: tl -> (
      match own_plan t r with
      | Some p -> decorate ((rank.(p.idx), r) :: acc) tl
      | None -> None)
  in
  Option.map
    (fun ranked ->
      List.map snd (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) ranked))
    (decorate [] rows)

(* The pool table's bounds, each reset when reached like every memo here.
   A check scans one or two pools, so 64 pools hold those of a few dozen
   config files.  A pool holds at most two witnesses per model row, so 64
   large pools could hold 64 * 2n; the witness cap keeps the memo near what
   materialized per-slow-row orders held for a 600-row model (n^2 ints). *)
let max_pools = 64
let max_witnesses = 32_768

(* The pool's candidates are element-wise the same physical rows: then
   every input deciding a slow row's ordering is identical, so the
   memoized witnesses are exact. *)
let pool_matches p ~cap rows =
  p.p_cap = cap && (p.p_rows == rows || List.equal ( == ) p.p_rows rows)

(* The pool a query scans: the last one when it matches (every slow row of
   one check passes the same list), else one found by the candidates'
   state ids, else a new one.  [None] when some candidate is not
   physically a model row: such pools are never stored. *)
let pool_of t ~cap rows =
  match t.last_pool with
  | Some p when pool_matches p ~cap rows -> Some p
  | _ -> (
    let h = List.fold_left (fun h (r : Row.t) -> (h * 31) + r.Row.state_id) cap rows in
    match List.find_opt (fun p -> pool_matches p ~cap rows) (Hashtbl.find_all t.pools h) with
    | Some p ->
      t.last_pool <- Some p;
      Some p
    | None when List.for_all (fun r -> own_plan t r <> None) rows ->
      if Hashtbl.length t.pools >= max_pools then Hashtbl.reset t.pools;
      let p = { p_id = t.next_pool; p_rows = rows; p_cap = cap } in
      t.next_pool <- t.next_pool + 1;
      Hashtbl.add t.pools h p;
      t.last_pool <- Some p;
      Some p
    | None -> None)

(* [joint_input_feasible], memoized per workload-class pair when both rows
   are model rows *)
let joint_feasible t ~(slow : Row.t) ~(fast : Row.t) =
  match (own_plan t slow, own_plan t fast) with
  | Some i, Some j ->
    memoized t.joint_memo ~cap:65_536 (i.wclass, j.wclass) (fun () ->
        joint_input_feasible ~slow ~fast)
  | _ -> joint_input_feasible ~slow ~fast

(* [judge], memoized per (slow, fast) state-id pair *)
let verdict t ~(slow : Row.t) ~(fast : Row.t) =
  let key = (slow.Row.state_id, fast.Row.state_id) in
  memoized t.verdict_memo ~cap:8_192 key (fun () ->
      judge t.cm_model (Hashtbl.find_opt t.first_pair key) ~slow ~fast)

(* The checker's witness scan — first candidate in comparison order that
   passes the joint-input gate (when required) and yields a verdict — as a
   single memoized lookup.  Every deciding input is pinned by the key: the
   slow row (physically a model row), the pool (element-wise physical
   identity, and the cap) and the gate flag; the order, the gate and the
   verdict are deterministic in those, so the first computed answer is the
   answer. *)
let witness_walk t ~cap ~require_joint_input ~slow rows =
  scan ~require_joint_input
    ~gate:(fun fast -> joint_feasible t ~slow ~fast)
    ~verdict:(fun fast -> verdict t ~slow ~fast)
    (live_order ~cap ~slow rows)

let first_witness t ~cap ~require_joint_input ~(slow : Row.t) rows =
  let walk () = witness_walk t ~cap ~require_joint_input ~slow rows in
  match own_plan t slow with
  | None -> walk ()
  | Some sp -> (
    match pool_of t ~cap rows with
    | None -> walk ()
    | Some p ->
      let key = (p.p_id, (2 * sp.idx) + Bool.to_int require_joint_input) in
      memoized t.witness_memo ~cap:max_witnesses key walk)
