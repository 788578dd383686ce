type rung = Full | Reduced_unroll | Concretize_all | Drop_states

let rung_level = function
  | Full -> 0
  | Reduced_unroll -> 1
  | Concretize_all -> 2
  | Drop_states -> 3

let rung_to_string = function
  | Full -> "full"
  | Reduced_unroll -> "reduced-unroll"
  | Concretize_all -> "concretize-all"
  | Drop_states -> "drop-states"

type event = { rung : rung; at_step : int; pressure : float }

type policy = {
  enabled : bool;
  t_unroll : float;
  t_concretize : float;
  t_drop : float;
  drop_keep_fraction : float;
}

let default_policy =
  { enabled = true; t_unroll = 0.5; t_concretize = 0.7; t_drop = 0.85; drop_keep_fraction = 0.5 }

let disabled = { default_policy with enabled = false }

type controller = {
  policy : policy;
  mutable cur : rung;
  mutable evs : event list;  (* newest first *)
}

let controller policy = { policy; cur = Full; evs = [] }
let current c = c.cur

let threshold c = function
  | Full -> 0.
  | Reduced_unroll -> c.policy.t_unroll
  | Concretize_all -> c.policy.t_concretize
  | Drop_states -> c.policy.t_drop

let next_rung = function
  | Full -> Some Reduced_unroll
  | Reduced_unroll -> Some Concretize_all
  | Concretize_all -> Some Drop_states
  | Drop_states -> None

let observe c ~pressure ~step =
  if not c.policy.enabled then []
  else begin
    let rec climb acc =
      match next_rung c.cur with
      | Some r when pressure >= threshold c r ->
        let ev = { rung = r; at_step = step; pressure } in
        c.cur <- r;
        c.evs <- ev :: c.evs;
        climb (ev :: acc)
      | _ -> List.rev acc
    in
    climb []
  end

let events c = List.rev c.evs

let restore c evs =
  c.evs <- List.rev evs;
  c.cur <-
    List.fold_left (fun cur e -> if rung_level e.rung > rung_level cur then e.rung else cur)
      Full evs
