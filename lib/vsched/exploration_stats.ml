type query_sizes = {
  pre_constraints : int;  (* conjuncts across all queries, before slicing *)
  sent_constraints : int;  (* conjuncts actually sent (after slicing) *)
  sliced : int;  (* queries where slicing removed at least one conjunct *)
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
  mutable r_q_sent_constraints : int;
  mutable r_q_sliced : int;
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
    r_q_sent_constraints = 0;
    r_q_sliced = 0;
  }

let on_step r = r.r_steps <- r.r_steps + 1
let on_fork r = r.r_forks <- r.r_forks + 1
let on_degrade r ev = r.r_degradation <- ev :: r.r_degradation
let steps r = r.r_steps

let on_complete r ~dropped =
  if dropped then r.r_dropped <- r.r_dropped + 1 else r.r_completed <- r.r_completed + 1

(* every field's value is immutable, so a new record is a full copy *)
let copy r = { r with r_steps = r.r_steps }
let resume r = { r with r_resumed = true }

let on_query r ~pre_constraints ~sent_constraints =
  r.r_q_pre_constraints <- r.r_q_pre_constraints + pre_constraints;
  r.r_q_sent_constraints <- r.r_q_sent_constraints + sent_constraints;
  if sent_constraints < pre_constraints then r.r_q_sliced <- r.r_q_sliced + 1

let finish ?(deadline_hit = false) r ~states_created ~solver_queries ~cache ~wall_time_s =
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
        sent_constraints = r.r_q_sent_constraints;
        sliced = r.r_q_sliced;
      };
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
    Fmt.pf ppf " slice[constraints=%d/%d sliced_queries=%d]" t.query_sizes.sent_constraints
      t.query_sizes.pre_constraints t.query_sizes.sliced
