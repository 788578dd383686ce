(* Query-size histogram buckets: a query with [n] constraints lands in the
   first bucket whose threshold is >= n; the final bucket catches the rest. *)
let hist_thresholds = [| 1; 2; 4; 8; 16; 32; 64 |]
let n_hist_buckets = Array.length hist_thresholds + 1

let hist_bucket n =
  let rec go i =
    if i >= Array.length hist_thresholds then i
    else if n <= hist_thresholds.(i) then i
    else go (i + 1)
  in
  go 0

type query_sizes = {
  pre_constraints : int;  (* conjuncts across all queries, before slicing *)
  pre_nodes : int;  (* expression tree nodes, before slicing *)
  sent_constraints : int;  (* conjuncts actually sent (after slicing) *)
  sent_nodes : int;
  sliced : int;  (* queries where slicing removed at least one conjunct *)
  hist_pre : int array;  (* constraints-per-query histogram, before slicing *)
  hist_sent : int array;  (* same, after slicing *)
}

type t = {
  states_created : int;
  states_completed : int;
  states_dropped : int;
  forks : int;
  steps : int;
  fork_rate : float;
  solver_queries : int;
  solver_solves : int;
  cache : Solver_cache.stats option;
  wall_time_s : float;
  degradation : Vresilience.Degradation.event list;
  deadline_hit : bool;
  resumed : bool;
  query_sizes : query_sizes;
  memo_sizes : (string * int) list;
}

(* ------------------------------------------------------------------ *)

type recorder = {
  mutable r_resumed : bool;
  mutable r_steps : int;
  mutable r_forks : int;
  mutable r_completed : int;
  mutable r_dropped : int;
  mutable r_degradation : Vresilience.Degradation.event list;  (* newest first *)
  mutable r_q_pre_constraints : int;
  mutable r_q_pre_nodes : int;
  mutable r_q_sent_constraints : int;
  mutable r_q_sent_nodes : int;
  mutable r_q_sliced : int;
  r_hist_pre : int array;
  r_hist_sent : int array;
}

let recorder () =
  {
    r_resumed = false;
    r_steps = 0;
    r_forks = 0;
    r_completed = 0;
    r_dropped = 0;
    r_degradation = [];
    r_q_pre_constraints = 0;
    r_q_pre_nodes = 0;
    r_q_sent_constraints = 0;
    r_q_sent_nodes = 0;
    r_q_sliced = 0;
    r_hist_pre = Array.make n_hist_buckets 0;
    r_hist_sent = Array.make n_hist_buckets 0;
  }

let on_step r = r.r_steps <- r.r_steps + 1
let on_fork r = r.r_forks <- r.r_forks + 1
let on_degrade r ev = r.r_degradation <- ev :: r.r_degradation
let steps r = r.r_steps

let on_complete r ~dropped =
  if dropped then r.r_dropped <- r.r_dropped + 1 else r.r_completed <- r.r_completed + 1

let copy r =
  { r with r_hist_pre = Array.copy r.r_hist_pre; r_hist_sent = Array.copy r.r_hist_sent }

let resume r = { (copy r) with r_resumed = true }

let on_query r ~pre_constraints ~pre_nodes ~sent_constraints ~sent_nodes =
  r.r_q_pre_constraints <- r.r_q_pre_constraints + pre_constraints;
  r.r_q_pre_nodes <- r.r_q_pre_nodes + pre_nodes;
  r.r_q_sent_constraints <- r.r_q_sent_constraints + sent_constraints;
  r.r_q_sent_nodes <- r.r_q_sent_nodes + sent_nodes;
  if sent_constraints < pre_constraints then r.r_q_sliced <- r.r_q_sliced + 1;
  let bp = hist_bucket pre_constraints and bs = hist_bucket sent_constraints in
  r.r_hist_pre.(bp) <- r.r_hist_pre.(bp) + 1;
  r.r_hist_sent.(bs) <- r.r_hist_sent.(bs) + 1

let finish ?(deadline_hit = false) ?(memo_sizes = []) r ~states_created ~solver_queries ~cache
    ~wall_time_s =
  {
    states_created;
    states_completed = r.r_completed;
    states_dropped = r.r_dropped;
    forks = r.r_forks;
    steps = r.r_steps;
    fork_rate = (if r.r_steps = 0 then 0. else float_of_int r.r_forks /. float_of_int r.r_steps);
    solver_queries;
    solver_solves = cache.Solver_cache.misses;
    cache = Some cache;
    wall_time_s;
    degradation = List.rev r.r_degradation;
    deadline_hit;
    resumed = r.r_resumed;
    query_sizes =
      {
        pre_constraints = r.r_q_pre_constraints;
        pre_nodes = r.r_q_pre_nodes;
        sent_constraints = r.r_q_sent_constraints;
        sent_nodes = r.r_q_sent_nodes;
        sliced = r.r_q_sliced;
        hist_pre = Array.copy r.r_hist_pre;
        hist_sent = Array.copy r.r_hist_sent;
      };
    memo_sizes;
  }

let pp ppf t =
  Fmt.pf ppf
    "states=%d (%d completed, %d dropped) forks=%d steps=%d fork_rate=%.4f solver=%d/%d%a%a%s%s"
    t.states_created t.states_completed t.states_dropped t.forks t.steps t.fork_rate
    t.solver_solves t.solver_queries
    (fun ppf -> function
      | None -> ()
      | Some c -> Fmt.pf ppf " cache[%a]" Solver_cache.pp_stats c)
    t.cache
    (fun ppf -> function
      | [] -> ()
      | evs ->
        Fmt.pf ppf " degraded[%s]"
          (String.concat " -> "
             (List.map
                (fun (e : Vresilience.Degradation.event) ->
                  Vresilience.Degradation.rung_to_string e.Vresilience.Degradation.rung)
                evs)))
    t.degradation
    (if t.deadline_hit then " DEADLINE" else "")
    (if t.resumed then " resumed" else "");
  if t.query_sizes.pre_constraints > 0 then
    Fmt.pf ppf " slice[constraints=%d/%d nodes=%d/%d sliced_queries=%d]"
      t.query_sizes.sent_constraints t.query_sizes.pre_constraints t.query_sizes.sent_nodes
      t.query_sizes.pre_nodes t.query_sizes.sliced;
  if t.memo_sizes <> [] then
    Fmt.pf ppf " memo[%s]"
      (String.concat " " (List.map (fun (n, s) -> Printf.sprintf "%s=%d" n s) t.memo_sizes))
