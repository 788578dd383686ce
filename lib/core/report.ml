module M = Vmodel.Impact_model
module Ex = Vsymexec.Executor

let human_time s =
  if s >= 60. then Printf.sprintf "%d m %d s" (int_of_float s / 60) (int_of_float s mod 60)
  else Printf.sprintf "%.1f s" s

let dominant_trigger (a : Pipeline.analysis) =
  match a.Pipeline.model.M.poor_pairs with
  | [] -> "-"
  | pairs ->
    let tbl = Hashtbl.create 4 in
    List.iter
      (fun (p : M.poor_pair_summary) ->
        Hashtbl.replace tbl p.M.trigger
          (1 + match Hashtbl.find_opt tbl p.M.trigger with Some n -> n | None -> 0))
      pairs;
    fst
      (Hashtbl.fold
         (fun k v (bk, bv) -> if v > bv then (k, v) else (bk, bv))
         tbl ("-", 0))

let summary_row (a : Pipeline.analysis) =
  let m = a.Pipeline.model in
  [
    string_of_int m.M.explored_states;
    string_of_int (List.length m.M.poor_state_ids);
    string_of_int (List.length m.M.related);
    dominant_trigger a;
    human_time m.M.virtual_analysis_s;
    Printf.sprintf "%.1fx" m.M.max_ratio;
  ]

let pp_analysis ppf (a : Pipeline.analysis) =
  let m = a.Pipeline.model in
  let r = a.Pipeline.related in
  Fmt.pf ppf "=== Violet analysis: %s / %s ===@." m.M.system m.M.target;
  Fmt.pf ppf "enabler params:    [%s]@."
    (String.concat ", " r.Vanalysis.Related_config.enablers);
  Fmt.pf ppf "influenced params: [%s]@."
    (String.concat ", " r.Vanalysis.Related_config.influenced);
  Fmt.pf ppf "symbolic set:      [%s]@." (String.concat ", " m.M.related);
  Fmt.pf ppf "exploration: %a@." Vsched.Exploration_stats.pp a.Pipeline.result.Ex.sched;
  Fmt.pf ppf "%a" M.pp_cost_table m;
  if m.M.poor_pairs = [] then Fmt.pf ppf "no suspicious state pairs@."
  else begin
    Fmt.pf ppf "%d suspicious pair(s):@." (List.length m.M.poor_pairs);
    List.iter
      (fun (p : M.poor_pair_summary) ->
        Fmt.pf ppf "  state %d vs %d: %.1fx (%s), critical path: %s@." p.M.slow_id
          p.M.fast_id p.M.latency_ratio p.M.trigger
          (match p.M.critical_path with
          | [] -> "-"
          | cp -> String.concat " -> " cp))
      m.M.poor_pairs
  end;
  Fmt.pf ppf "analysis time: wall %.2f s, virtual %s@." m.M.analysis_wall_s
    (human_time m.M.virtual_analysis_s)
