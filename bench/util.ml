(* Table rendering and shared helpers for the experiment harness. *)

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

(* Where a BENCH_*.json was measured, as JSON object fields: core count,
   OCaml version, and the git commit of the working tree ("-dirty" when it
   has uncommitted changes, "unknown" outside a checkout). *)
let env_json_fields () =
  let commit =
    match Unix.open_process_in "git describe --always --dirty --abbrev=12 2>/dev/null" with
    | exception Unix.Unix_error _ -> "unknown"
    | ic ->
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if line = "" then "unknown" else line
  in
  Printf.sprintf "\"cores\":%d,\"ocaml\":%S,\"commit\":%S"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version commit

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

let flush_sched () =
  match !stats_out with
  | None -> ()
  | Some path ->
    Vsched.Exploration_stats.save ~path (List.rev !collected_sched);
    note "wrote %d exploration-stats record(s) to %s" (List.length !collected_sched) path

let analyze_case (c : Targets.Cases.known_case) =
  let target = Targets.Cases.target_of c.Targets.Cases.system in
  let opts = c.Targets.Cases.tweak Violet.Pipeline.default_options in
  Violet.Pipeline.analyze_exn ~opts target c.Targets.Cases.param
