module E = Vsmt.Expr
module Solver = Vsmt.Solver

(* stored models probed per feasibility miss, newest first *)
let max_models = 64

type t = {
  max_nodes : int;
  (* keyed on the *sorted* constraint set, so permuted path conditions
     (same constraints discovered in a different branch order) hit the same
     entry *)
  memo : (string, Solver.result) Hashtbl.t;
  mutable models : Solver.model list;  (* newest first *)
  mutable n_lookups : int;
  mutable n_exact_hits : int;
  mutable n_cex_hits : int;
  mutable n_misses : int;
  (* work that actually reached the solver (misses only) *)
  mutable n_solver_constraints : int;
}

type stats = {
  lookups : int;
  exact_hits : int;
  cex_hits : int;
  misses : int;
  stored_models : int;
  solver_constraints : int;
}

let create ~max_nodes () =
  {
    max_nodes;
    memo = Hashtbl.create 256;
    models = [];
    n_lookups = 0;
    n_exact_hits = 0;
    n_cex_hits = 0;
    n_misses = 0;
    n_solver_constraints = 0;
  }

let all_vars cs =
  let tbl = Hashtbl.create 16 in
  List.iter (fun c -> List.iter (fun (v : E.var) -> Hashtbl.replace tbl v.E.name v) (E.vars c)) cs;
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.sort (fun (a : E.var) (b : E.var) -> String.compare a.E.name b.E.name)

(* Probe the stored satisfying assignments against the query: complete each
   over the query's variables and verify every conjunct by evaluation, so a
   hit is sound by construction. *)
let probe_models t cs =
  let vars = all_vars cs in
  let satisfies m =
    let m = Solver.complete ~vars m in
    List.for_all (fun c -> match Solver.eval_in m c with Some v -> v <> 0 | None -> false) cs
  in
  List.exists satisfies t.models

let store_model t m =
  let canon m = List.sort compare m in
  let cm = canon m in
  if not (List.exists (fun m' -> canon m' = cm) t.models) then begin
    t.models <- m :: t.models;
    if List.length t.models > max_models then
      t.models <- List.filteri (fun i _ -> i < max_models) t.models
  end

(* [E.to_string] is memoized per unique node, so keying stays cheap.
   Solving the sorted set, not just keying on it, means a miss computes the
   very result a permuted hit later replays. *)
let prepare cs =
  let canon = List.sort_uniq E.compare (Vsmt.Simplify.simplify_conj cs) in
  canon, String.concat "\x00" (List.map E.to_string canon)

(* A result computed after the deadline passed may be a deadline-induced
   [Unknown] — a property of *this* run's clock, not of the query — so it
   is returned but never recorded. *)
let solve t ?budget key canon =
  t.n_misses <- t.n_misses + 1;
  t.n_solver_constraints <- t.n_solver_constraints + List.length canon;
  let result = Solver.check ?budget ~max_nodes:t.max_nodes canon in
  if not (match budget with Some b -> Vresilience.Budget.expired b | None -> false) then begin
    Hashtbl.replace t.memo key result;
    match result with Solver.Sat m -> store_model t m | Solver.Unsat | Solver.Unknown -> ()
  end;
  result

let lookup t key =
  t.n_lookups <- t.n_lookups + 1;
  let r = Hashtbl.find_opt t.memo key in
  if r <> None then t.n_exact_hits <- t.n_exact_hits + 1;
  r

let feasible = function Solver.Sat _ | Solver.Unknown -> true | Solver.Unsat -> false

let is_feasible t ?budget cs =
  let canon, key = prepare cs in
  match lookup t key with
  | Some r -> feasible r
  | None ->
    if probe_models t canon then begin
      t.n_cex_hits <- t.n_cex_hits + 1;
      true
    end
    else feasible (solve t ?budget key canon)

let check_model t ?budget cs =
  let canon, key = prepare cs in
  match lookup t key with Some r -> r | None -> solve t ?budget key canon

let stats t =
  {
    lookups = t.n_lookups;
    exact_hits = t.n_exact_hits;
    cex_hits = t.n_cex_hits;
    misses = t.n_misses;
    stored_models = List.length t.models;
    solver_constraints = t.n_solver_constraints;
  }

let hits s = s.exact_hits + s.cex_hits
let hit_rate s = if s.lookups = 0 then 0. else float_of_int (hits s) /. float_of_int s.lookups

let pp_stats ppf s =
  Fmt.pf ppf
    "%d lookups, %d hits (%.0f%%: %d exact, %d cex), %d misses (%d constraints solved)" s.lookups
    (hits s) (100. *. hit_rate s) s.exact_hits s.cex_hits s.misses s.solver_constraints
