type sample = { step : int; queue_depth : int }
type completion = { state_id : int; at_step : int; dropped : bool }

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
  searcher : string;
  solver_cache_enabled : bool;
  states_created : int;
  states_completed : int;
  states_dropped : int;
  forks : int;
  steps : int;
  fork_rate : float;
  solver_queries : int;
  solver_solves : int;
  cache : Solver_cache.stats option;
  completions : completion list;
  queue_samples : sample list;
  wall_time_s : float;
  degradation : Vresilience.Degradation.event list;
  deadline_hit : bool;
  resumed : bool;
  query_sizes : query_sizes;
  memo_sizes : (string * int) list;
}

(* ------------------------------------------------------------------ *)

type recorder = {
  r_searcher : string;
  r_cache_enabled : bool;
  mutable r_resumed : bool;
  mutable r_steps : int;
  mutable r_forks : int;
  mutable r_completions : completion list;  (* newest first *)
  mutable r_samples : sample list;  (* newest first *)
  mutable r_last_sample_step : int;
  mutable r_degradation : Vresilience.Degradation.event list;  (* newest first *)
  mutable r_q_pre_constraints : int;
  mutable r_q_pre_nodes : int;
  mutable r_q_sent_constraints : int;
  mutable r_q_sent_nodes : int;
  mutable r_q_sliced : int;
  r_hist_pre : int array;
  r_hist_sent : int array;
}

let sample_every = 64

let recorder ~searcher ~solver_cache_enabled () =
  {
    r_searcher = searcher;
    r_cache_enabled = solver_cache_enabled;
    r_resumed = false;
    r_steps = 0;
    r_forks = 0;
    r_completions = [];
    r_samples = [];
    r_last_sample_step = -sample_every;  (* so the very first pick samples *)
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

let copy r =
  { r with r_hist_pre = Array.copy r.r_hist_pre; r_hist_sent = Array.copy r.r_hist_sent }

let on_query r ~pre_constraints ~pre_nodes ~sent_constraints ~sent_nodes =
  r.r_q_pre_constraints <- r.r_q_pre_constraints + pre_constraints;
  r.r_q_pre_nodes <- r.r_q_pre_nodes + pre_nodes;
  r.r_q_sent_constraints <- r.r_q_sent_constraints + sent_constraints;
  r.r_q_sent_nodes <- r.r_q_sent_nodes + sent_nodes;
  if sent_constraints < pre_constraints then r.r_q_sliced <- r.r_q_sliced + 1;
  let bp = hist_bucket pre_constraints and bs = hist_bucket sent_constraints in
  r.r_hist_pre.(bp) <- r.r_hist_pre.(bp) + 1;
  r.r_hist_sent.(bs) <- r.r_hist_sent.(bs) + 1

let on_pick r ~queue_depth =
  if r.r_steps - r.r_last_sample_step >= sample_every then begin
    r.r_samples <- { step = r.r_steps; queue_depth } :: r.r_samples;
    r.r_last_sample_step <- r.r_steps
  end

let on_complete r ~state_id ~dropped =
  r.r_completions <- { state_id; at_step = r.r_steps; dropped } :: r.r_completions

(* A resumed run carries the checkpointed counters and logs on; like a
   fresh recorder, its first pick takes a queue sample. *)
let resume r ~solver_cache_enabled =
  {
    (copy r) with
    r_cache_enabled = solver_cache_enabled;
    r_resumed = true;
    r_last_sample_step = -sample_every;
  }

let completions r = List.rev r.r_completions
let set_completions r cs = r.r_completions <- List.rev cs

let finish ?(deadline_hit = false) ?(memo_sizes = []) r
    ~states_created ~solver_queries ~solver_solves ~cache ~wall_time_s =
  let completions = List.rev r.r_completions in
  let dropped = List.length (List.filter (fun c -> c.dropped) completions) in
  {
    searcher = r.r_searcher;
    solver_cache_enabled = r.r_cache_enabled;
    states_created;
    states_completed = List.length completions - dropped;
    states_dropped = dropped;
    forks = r.r_forks;
    steps = r.r_steps;
    fork_rate = (if r.r_steps = 0 then 0. else float_of_int r.r_forks /. float_of_int r.r_steps);
    solver_queries;
    solver_solves;
    cache;
    completions;
    queue_samples = List.rev r.r_samples;
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

let first_completion t ~satisfying =
  List.find_opt (fun c -> satisfying c.state_id) t.completions

let pp ppf t =
  Fmt.pf ppf
    "searcher=%s states=%d (%d completed, %d dropped) forks=%d steps=%d fork_rate=%.4f solver=%d/%d%a%a%s%s"
    t.searcher t.states_created t.states_completed t.states_dropped t.forks t.steps t.fork_rate
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
