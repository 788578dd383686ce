type t = {
  deadline_s : float option;
  max_states : int;
  fuel : int;
  solver_max_nodes : int;
  now : unit -> float;
}

let make ?deadline_s ?(max_states = 4096) ?(fuel = 200_000) ?(solver_max_nodes = 4_000)
    ?(now = Unix.gettimeofday) () =
  { deadline_s; max_states; fuel; solver_max_nodes; now }

let default = make ()
let with_deadline t deadline_s = { t with deadline_s }
let with_max_states t max_states = { t with max_states }
let with_clock t now = { t with now }

type armed = { spec : t; t0 : float }

let arm spec = { spec; t0 = spec.now () }
let spec a = a.spec
let elapsed_s a = a.spec.now () -. a.t0

let remaining_s a =
  Option.map (fun d -> Float.max 0. (d -. elapsed_s a)) a.spec.deadline_s

let expired a =
  match a.spec.deadline_s with None -> false | Some d -> elapsed_s a >= d

let pressure a =
  match a.spec.deadline_s with
  | None -> 0.
  | Some d when d <= 0. -> 1.
  | Some d -> Float.min 1. (Float.max 0. (elapsed_s a /. d))

let rearm a = arm a.spec
let unlimited () = arm default

let ticking_clock ?(start = 0.) ~step_s () =
  let t = ref start in
  fun () ->
    let v = !t in
    t := v +. step_s;
    v

let manual_clock ?(start = 0.) () =
  let t = ref start in
  (fun () -> !t), fun dt -> t := !t +. dt
