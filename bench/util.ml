(* Table rendering and shared helpers for the experiment harness. *)

module Wire = Vserve.Wire

let section title =
  let bar = String.make (String.length title + 8) '=' in
  Fmt.pr "@.%s@.=== %s ===@.%s@." bar title bar

let note fmt = Fmt.pr ("  " ^^ fmt ^^ "@.")

let print_table ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init cols width in
  let render row =
    let cells =
      List.mapi
        (fun c w ->
          let cell = match List.nth_opt row c with Some s -> s | None -> "" in
          cell ^ String.make (w - String.length cell) ' ')
        widths
    in
    Fmt.pr "| %s |@." (String.concat " | " cells)
  in
  render header;
  Fmt.pr "|%s|@."
    (String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths));
  List.iter render rows

let fx f = Printf.sprintf "%.1fx" f
let f1 f = Printf.sprintf "%.1f" f
let f2 f = Printf.sprintf "%.2f" f
let i0 = string_of_int
let yes_no b = if b then "yes" else "no"
let check b = if b then "v" else "x"

(* [f] rounded to [digits] decimals, for JSON figures read by people *)
let round digits f =
  let scale = 10. ** float_of_int digits in
  Float.round (f *. scale) /. scale

let write_json path doc =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Wire.to_string doc);
      output_char oc '\n')

(* Write BENCH_<experiment>.json: the experiment's name, where it was
   measured (core count, OCaml version, and the git commit of the working
   tree, "-dirty" when it has uncommitted changes, "unknown" outside a
   checkout), then its own fields. *)
let write_bench experiment fields =
  let commit =
    match Unix.open_process_in "git describe --always --dirty --abbrev=12 2>/dev/null" with
    | exception Unix.Unix_error _ -> "unknown"
    | ic ->
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if line = "" then "unknown" else line
  in
  let path = Printf.sprintf "BENCH_%s.json" experiment in
  write_json path
    (Wire.Obj
       ([
          ("experiment", Wire.String experiment);
          ("cores", Wire.Int (Domain.recommended_domain_count ()));
          ("ocaml", Wire.String Sys.ocaml_version);
          ("commit", Wire.String commit);
        ]
       @ fields));
  note "wrote %s" path

(* quartiles over a non-empty float list *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  let at q =
    let idx = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor idx) and hi = int_of_float (Float.ceil idx) in
    let frac = idx -. Float.floor idx in
    (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)
  in
  a.(0), at 0.25, at 0.5, at 0.75, a.(n - 1)

let config_values registry settings =
  List.fold_left
    (fun values (name, v) -> Vruntime.Config_registry.Values.set_str values name v)
    (Vruntime.Config_registry.Values.defaults registry)
    settings

(* [--seed N] / [--count N] support for the corpus-driven experiments
   (currently the vfuzz one). *)
let fuzz_seed = ref 42
let fuzz_count = ref 200

(* [--stats-out FILE] support: experiments push the exploration telemetry of
   every pipeline run they make; main flushes the collection once at exit. *)
let stats_out : string option ref = ref None
let collected_sched : Vsched.Exploration_stats.t list ref = ref []
let record_sched s = collected_sched := s :: !collected_sched

let sched_to_wire (t : Vsched.Exploration_stats.t) =
  let module S = Vsched.Exploration_stats in
  let cache (c : Vsched.Solver_cache.stats) =
    Wire.Obj
      [
        ("lookups", Wire.Int c.lookups);
        ("exact_hits", Wire.Int c.exact_hits);
        ("cex_hits", Wire.Int c.cex_hits);
        ("misses", Wire.Int c.misses);
        ("stored_models", Wire.Int c.stored_models);
        ("hit_rate", Wire.Float (Vsched.Solver_cache.hit_rate c));
        ("solver_constraints", Wire.Int c.solver_constraints);
      ]
  in
  let q = t.S.query_sizes in
  Wire.Obj
    [
      ("states_created", Wire.Int t.S.states_created);
      ("states_completed", Wire.Int t.S.states_completed);
      ("states_dropped", Wire.Int t.S.states_dropped);
      ("forks", Wire.Int t.S.forks);
      ("steps", Wire.Int t.S.steps);
      ("fork_rate", Wire.Float t.S.fork_rate);
      ("solver_queries", Wire.Int t.S.solver_queries);
      ("solver_solves", Wire.Int t.S.solver_solves);
      ("cache", Option.fold ~none:Wire.Null ~some:cache t.S.cache);
      ("wall_time_s", Wire.Float t.S.wall_time_s);
      ( "degradation",
        Wire.List
          (List.map
             (fun (e : Vresilience.Degradation.event) ->
               Wire.Obj
                 [
                   ("rung", Wire.String (Vresilience.Degradation.rung_to_string e.rung));
                   ("at_step", Wire.Int e.at_step);
                   ("pressure", Wire.Float e.pressure);
                 ])
             t.S.degradation) );
      ("deadline_hit", Wire.Bool t.S.deadline_hit);
      ("resumed", Wire.Bool t.S.resumed);
      ( "query_sizes",
        Wire.Obj
          [
            ("pre_constraints", Wire.Int q.pre_constraints);
            ("sent_constraints", Wire.Int q.sent_constraints);
            ("sliced_queries", Wire.Int q.sliced);
          ] );
    ]

let flush_sched () =
  match !stats_out with
  | None -> ()
  | Some path ->
    let records = List.rev !collected_sched in
    write_json path (Wire.List (List.map sched_to_wire records));
    note "wrote %d exploration-stats record(s) to %s" (List.length records) path

let analyze_case (c : Targets.Cases.known_case) =
  let target = Targets.Cases.target_of c.Targets.Cases.system in
  let opts = c.Targets.Cases.tweak Violet.Pipeline.default_options in
  Violet.Pipeline.analyze_exn ~opts target c.Targets.Cases.param
