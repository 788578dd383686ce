(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 7), plus the ablations from DESIGN.md.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- table4  # one experiment
     dune exec bench/main.exe -- slice --stats-out slice.json
                                         # dump exploration telemetry *)

let experiments =
  [
    "fleet", ("vfleet: shard scaling + chaos A/B + fleet oracle", Exp_fleet.run);
    "serve", ("Serving: steady load + admission control + shedding", Exp_serve.run);
    "fuzz", ("vfuzz: planted ground truth + differential oracle", Exp_fuzz.run);
    "fig2", ("Figure 2: autocommit throughput", Exp_fig2.run);
    "table1", ("Table 1: autocommit cost table", Exp_table1.run);
    "table4", ("Table 4: 17 known cases", Exp_table4.run);
    "testing", ("Section 7.3: black-box testing comparison", Exp_testing.run);
    "table5", ("Table 5: unknown specious configs", Exp_table5.run);
    "table6", ("Table 6: model coverage", Exp_table6.run);
    "table7", ("Table 7: profiling accuracy", Exp_table7.run);
    "fig9", ("Figure 9: unrelated-parameter explosion", Exp_fig9.run);
    "fig12", ("Figures 12-13: user study", Exp_userstudy.run);
    "fig14", ("Figure 14: analysis times", Exp_fig14.run);
    "fig15", ("Figure 15: threshold sensitivity", Exp_fig15.run);
    "fp", ("Section 7.8: false positives", Exp_fp.run);
    "upgrade", ("Checker mode 3: code upgrade", Exp_upgrade.run);
    "perf", ("Section 7.9: toolchain performance", Exp_perf.run);
    "ablation", ("Design-choice ablations", Exp_ablation.run);
    "resilience", ("Checkpoint overhead + degradation fidelity", Exp_resilience.run);
    "slice", ("Independence slicing: solver work + model identity", Exp_slice.run);
    "matcheck", ("Compiled checker: decision-table fast path", Exp_matcheck.run);
    "inc", ("vinc: incremental re-analysis", Exp_inc.run);
  ]

(* strip [--stats-out FILE] / [--seed N] / [--count N] before dispatching on
   experiment names *)
let int_arg flag v =
  match int_of_string_opt v with
  | Some n -> n
  | None ->
    Fmt.epr "%s requires an integer argument@." flag;
    exit 1

let rec parse_args = function
  | "--stats-out" :: path :: rest ->
    Util.stats_out := Some path;
    parse_args rest
  | "--seed" :: v :: rest ->
    Util.fuzz_seed := int_arg "--seed" v;
    parse_args rest
  | "--count" :: v :: rest ->
    Util.fuzz_count := int_arg "--count" v;
    parse_args rest
  | [ ("--stats-out" | "--seed" | "--count") ] ->
    Fmt.epr "--stats-out/--seed/--count require an argument@.";
    exit 1
  | name :: rest -> name :: parse_args rest
  | [] -> []

let () =
  let args = parse_args (List.tl (Array.to_list Sys.argv)) in
  let t0 = Unix.gettimeofday () in
  begin
    match args with
    | [] ->
      Fmt.pr "Violet-ML benchmark harness: regenerating all paper tables and figures@.";
      List.iter (fun (_, (_, run)) -> run ()) experiments
    | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some (_, run) -> run ()
          | None ->
            Fmt.epr "unknown experiment %s; available: %s@." name
              (String.concat ", " (List.map fst experiments));
            exit 1)
        names
  end;
  Util.flush_sched ();
  Fmt.pr "@.[bench complete in %.1f s]@." (Unix.gettimeofday () -. t0)
