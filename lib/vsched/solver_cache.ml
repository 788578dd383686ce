module E = Vsmt.Expr
module Solver = Vsmt.Solver
module Sset = Set.Make (String)

(* [foot] is the query's symbol footprint as sorted names — names, not
   footprint ids, so dumped caches stay valid across processes.  It scopes
   the Unknown-reclaim below to the slice that was actually re-solved. *)
type entry = { result : Solver.result; budget : int; foot : string list }

type t = {
  max_models : int;
  max_cores : int;
  (* both memos key on the *sorted* constraint set, so permuted path
     conditions (same constraints discovered in a different branch order)
     hit the same entry *)
  model_memo : (string, entry) Hashtbl.t;
  feas_memo : (string, entry) Hashtbl.t;
  mutable models : Solver.model list;  (* newest first *)
  mutable cores : Sset.t list;  (* newest first *)
  mutable n_lookups : int;
  mutable n_exact_hits : int;
  mutable n_cex_hits : int;
  mutable n_subsumption_hits : int;
  mutable n_misses : int;
  (* work that actually reached the solver (cache misses only) *)
  mutable n_solver_constraints : int;
  mutable n_solver_nodes : int;
  mutable n_unknown_purged : int;
}

type stats = {
  lookups : int;
  exact_hits : int;
  cex_hits : int;
  subsumption_hits : int;
  misses : int;
  stored_models : int;
  stored_cores : int;
  solver_constraints : int;  (** conjuncts sent to the solver across all misses *)
  solver_nodes : int;  (** expression tree nodes sent to the solver across all misses *)
  unknown_purged : int;  (** stale Unknown entries reclaimed by decided re-solves *)
}

let create ?(max_models = 64) ?(max_cores = 256) () =
  {
    max_models;
    max_cores;
    model_memo = Hashtbl.create 256;
    feas_memo = Hashtbl.create 256;
    models = [];
    cores = [];
    n_lookups = 0;
    n_exact_hits = 0;
    n_cex_hits = 0;
    n_subsumption_hits = 0;
    n_misses = 0;
    n_solver_constraints = 0;
    n_solver_nodes = 0;
    n_unknown_purged = 0;
  }

(* [E.to_string] is memoized per unique node, so keying stays cheap; string
   keys (rather than hashcons ids) keep dumps valid across processes, where
   ids are reassigned. *)

(* A cached Sat/Unsat is a completed proof and is a *sound* verdict under any
   budget; a cached Unknown only witnesses that [budget] nodes were not
   enough, so it replays only for queries with the same or a smaller
   budget. *)
let sound_verdict entry ~max_nodes =
  match entry.result with
  | Solver.Sat _ | Solver.Unsat -> true
  | Solver.Unknown -> entry.budget >= max_nodes

(* Stricter rule for model queries: replay only when a fresh solve would
   provably return the identical result.  The solver's answer is monotone in
   the budget (decided at some node count n*, Unknown below it), so a decided
   result cached at budget b replays for any request >= b, and an Unknown
   cached at b replays for any request <= b. *)
let identical_replay entry ~max_nodes =
  match entry.result with
  | Solver.Sat _ | Solver.Unsat -> max_nodes >= entry.budget
  | Solver.Unknown -> max_nodes <= entry.budget

let all_vars cs =
  let tbl = Hashtbl.create 16 in
  List.iter (fun c -> List.iter (fun (v : E.var) -> Hashtbl.replace tbl v.E.name v) (E.vars c)) cs;
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.sort (fun (a : E.var) (b : E.var) -> String.compare a.E.name b.E.name)

(* Probe a stored satisfying assignment against the query: complete it over
   the query's variables and verify every conjunct by evaluation, so a hit is
   sound by construction. *)
let probe_models t cs =
  let vars = all_vars cs in
  let satisfies m =
    let m = Solver.complete ~vars m in
    if List.for_all (fun c -> match Solver.eval_in m c with Some v -> v <> 0 | None -> false) cs
    then Some m
    else None
  in
  List.find_map satisfies t.models

let store_model t m =
  let canon m = List.sort compare m in
  let cm = canon m in
  if not (List.exists (fun m' -> canon m' = cm) t.models) then begin
    t.models <- m :: t.models;
    if List.length t.models > t.max_models then
      t.models <- List.filteri (fun i _ -> i < t.max_models) t.models
  end

let store_core t set =
  (* keep only minimal cores: a new superset of a stored core is redundant,
     and a new core obsoletes its stored supersets *)
  if not (List.exists (fun c -> Sset.subset c set) t.cores) then begin
    t.cores <- set :: List.filter (fun c -> not (Sset.subset set c)) t.cores;
    if List.length t.cores > t.max_cores then
      t.cores <- List.filteri (fun i _ -> i < t.max_cores) t.cores
  end

(* Subset test over sorted name lists. *)
let rec foot_subset a b =
  match (a, b) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: xs, y :: ys ->
    let c = String.compare x y in
    if c = 0 then foot_subset xs ys else if c > 0 then foot_subset a ys else false

let query_foot cs = Vsmt.Footprint.names (Vsmt.Footprint.of_list cs)

(* Reclaim Unknown entries superseded by a decided re-solve: once a query
   over some symbols is decided at budget [b], Unknown entries recorded at
   smaller budgets whose footprint lies inside those symbols are stale
   hints — keeping them only delays their inevitable replacement.  The
   footprint guard is the point: without it this reclaim would also evict
   Unknown entries of *unrelated* slices, throwing away budget-exhaustion
   evidence the next path still needs. *)
let purge_stale_unknowns t memo ~budget ~foot =
  let stale =
    Hashtbl.fold
      (fun key e acc ->
        match e.result with
        | Solver.Unknown when e.budget < budget && foot_subset e.foot foot -> key :: acc
        | _ -> acc)
      memo []
  in
  List.iter (Hashtbl.remove memo) stale;
  t.n_unknown_purged <- t.n_unknown_purged + List.length stale

let record t memo key ~max_nodes ~foot result =
  let superseded_unknown =
    match Hashtbl.find_opt memo key with
    | Some { result = Solver.Unknown; _ } -> ( match result with Solver.Unknown -> false | _ -> true)
    | _ -> false
  in
  Hashtbl.replace memo key { result; budget = max_nodes; foot };
  (* scan only on an actual larger-budget re-solve of a previously-Unknown
     query — the rare event the reclaim exists for; ordinary misses never
     pay an O(cache) sweep *)
  if superseded_unknown then purge_stale_unknowns t memo ~budget:max_nodes ~foot;
  match result with
  | Solver.Sat m -> store_model t m
  | Solver.Unsat -> ()
  | Solver.Unknown -> ()

let count_solver_work t cs =
  t.n_solver_constraints <- t.n_solver_constraints + List.length cs;
  t.n_solver_nodes <- t.n_solver_nodes + List.fold_left (fun a c -> a + E.tree_size c) 0 cs

(* A result computed after the deadline passed may be a deadline-induced
   [Unknown] — a property of *this* run's clock, not of the query.  Caching
   it would poison replay (and break checkpoint/resume determinism), so
   post-expiry results are returned but never recorded. *)
let expired = function
  | None -> false
  | Some b -> Vresilience.Budget.expired b

type prepared = { p_canon : E.t list; p_conjunct_keys : string list; p_key : string }

(* canonicalize: solve the sorted set, not just key on it — permuted queries
   then share one entry AND a miss computes the very result a permuted hit
   replays *)
let prepare cs =
  let canon = List.sort_uniq E.compare (Vsmt.Simplify.simplify_conj cs) in
  let conjunct_keys = List.map E.to_string canon in
  { p_canon = canon; p_conjunct_keys = conjunct_keys; p_key = String.concat "\x00" conjunct_keys }

let feasible = function Solver.Sat _ | Solver.Unknown -> true | Solver.Unsat -> false

(* Exact entry, stored-model probe, unsat-core subsumption; the solver only
   when all three miss.  One lookup per call. *)
let is_feasible t ?budget ~max_nodes cs =
  let p = prepare cs in
  t.n_lookups <- t.n_lookups + 1;
  match Hashtbl.find_opt t.feas_memo p.p_key with
  | Some e when sound_verdict e ~max_nodes ->
    t.n_exact_hits <- t.n_exact_hits + 1;
    feasible e.result
  | _ -> begin
    match probe_models t p.p_canon with
    | Some m ->
      t.n_cex_hits <- t.n_cex_hits + 1;
      Hashtbl.replace t.feas_memo p.p_key
        { result = Solver.Sat m; budget = max_nodes; foot = query_foot p.p_canon };
      true
    | None ->
      let qset = Sset.of_list p.p_conjunct_keys in
      if List.exists (fun core -> Sset.subset core qset) t.cores then begin
        t.n_subsumption_hits <- t.n_subsumption_hits + 1;
        Hashtbl.replace t.feas_memo p.p_key
          { result = Solver.Unsat; budget = max_nodes; foot = query_foot p.p_canon };
        false
      end
      else begin
        t.n_misses <- t.n_misses + 1;
        count_solver_work t p.p_canon;
        let result = Solver.check ?budget ~max_nodes p.p_canon in
        if not (expired budget) then begin
          record t t.feas_memo p.p_key ~max_nodes ~foot:(query_foot p.p_canon) result;
          if result = Solver.Unsat then store_core t qset
        end;
        feasible result
      end
  end

let check_model t ?budget ~max_nodes cs =
  let p = prepare cs in
  t.n_lookups <- t.n_lookups + 1;
  match Hashtbl.find_opt t.model_memo p.p_key with
  | Some e when identical_replay e ~max_nodes ->
    t.n_exact_hits <- t.n_exact_hits + 1;
    e.result
  | _ ->
    t.n_misses <- t.n_misses + 1;
    count_solver_work t p.p_canon;
    let result = Solver.check ?budget ~max_nodes p.p_canon in
    if not (expired budget) then
      record t t.model_memo p.p_key ~max_nodes ~foot:(query_foot p.p_canon) result;
    result

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

type dump = t

let dump t =
  { t with model_memo = Hashtbl.copy t.model_memo; feas_memo = Hashtbl.copy t.feas_memo }

let dump_entries (d : dump) = Hashtbl.length d.model_memo + Hashtbl.length d.feas_memo

(* Footprint-scoped invalidation for cross-run reuse.  A cached Sat/Unsat
   is a proof about the constraint *text* and stays logically valid across
   code versions, but entries touching symbols from changed code are
   dropped anyway: their queries won't recur verbatim under the new
   version, and keeping them would let a warm run's verdict provenance
   differ from a cold run's.  Counters are zeroed because {!prime} folds
   the dump's counters into the receiving cache — a cross-run dump must not
   pollute the next run's hit statistics with last run's totals. *)
let filter_dump (d : dump) ~(dirty : string list) =
  let dirty_set = Sset.of_list dirty in
  let clean_entry (e : entry) = not (List.exists (fun n -> Sset.mem n dirty_set) e.foot) in
  let filter_memo memo =
    let out = Hashtbl.create (Hashtbl.length memo) in
    Hashtbl.iter (fun k e -> if clean_entry e then Hashtbl.replace out k e) memo;
    out
  in
  let clean_model m = not (List.exists (fun (n, _) -> Sset.mem n dirty_set) m) in
  let clean_core c = Sset.is_empty (Sset.inter c dirty_set) in
  {
    d with
    model_memo = filter_memo d.model_memo;
    feas_memo = filter_memo d.feas_memo;
    models = (if Sset.is_empty dirty_set then d.models else List.filter clean_model d.models);
    cores = (if Sset.is_empty dirty_set then d.cores else List.filter clean_core d.cores);
    n_lookups = 0;
    n_exact_hits = 0;
    n_cex_hits = 0;
    n_subsumption_hits = 0;
    n_misses = 0;
    n_solver_constraints = 0;
    n_solver_nodes = 0;
    n_unknown_purged = 0;
  }

(* Fold a dump into a live cache.  A conflict keeps whichever entry is
   stronger: a decided verdict beats Unknown, and among Unknowns the larger
   budget subsumes the smaller. *)
let merge_entry memo key (e : entry) =
  match Hashtbl.find_opt memo key with
  | None -> Hashtbl.replace memo key e
  | Some cur -> begin
    match cur.result, e.result with
    | Solver.Unknown, (Solver.Sat _ | Solver.Unsat) -> Hashtbl.replace memo key e
    | Solver.Unknown, Solver.Unknown when e.budget > cur.budget ->
      Hashtbl.replace memo key e
    | _ -> ()
  end

let prime t (d : dump) =
  Hashtbl.iter (merge_entry t.model_memo) d.model_memo;
  Hashtbl.iter (merge_entry t.feas_memo) d.feas_memo;
  (* oldest first so the recency order matches discovery order *)
  List.iter (store_model t) (List.rev d.models);
  List.iter (store_core t) (List.rev d.cores);
  t.n_lookups <- t.n_lookups + d.n_lookups;
  t.n_exact_hits <- t.n_exact_hits + d.n_exact_hits;
  t.n_cex_hits <- t.n_cex_hits + d.n_cex_hits;
  t.n_subsumption_hits <- t.n_subsumption_hits + d.n_subsumption_hits;
  t.n_misses <- t.n_misses + d.n_misses;
  t.n_solver_constraints <- t.n_solver_constraints + d.n_solver_constraints;
  t.n_solver_nodes <- t.n_solver_nodes + d.n_solver_nodes;
  t.n_unknown_purged <- t.n_unknown_purged + d.n_unknown_purged

let table_sizes t = Hashtbl.length t.feas_memo, Hashtbl.length t.model_memo

let stats t =
  {
    lookups = t.n_lookups;
    exact_hits = t.n_exact_hits;
    cex_hits = t.n_cex_hits;
    subsumption_hits = t.n_subsumption_hits;
    misses = t.n_misses;
    stored_models = List.length t.models;
    stored_cores = List.length t.cores;
    solver_constraints = t.n_solver_constraints;
    solver_nodes = t.n_solver_nodes;
    unknown_purged = t.n_unknown_purged;
  }

let hits s = s.exact_hits + s.cex_hits + s.subsumption_hits

let hit_rate s = if s.lookups = 0 then 0. else float_of_int (hits s) /. float_of_int s.lookups

let pp_stats ppf s =
  Fmt.pf ppf
    "%d lookups, %d hits (%.0f%%: %d exact, %d cex, %d subsumption), %d misses \
     (%d constraints / %d nodes solved, %d stale unknowns purged)"
    s.lookups (hits s) (100. *. hit_rate s) s.exact_hits s.cex_hits s.subsumption_hits
    s.misses s.solver_constraints s.solver_nodes s.unknown_purged
