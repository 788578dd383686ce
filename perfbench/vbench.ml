(* vbench: one benchmark run of one workload.

     vbench --workload NAME --seed N --seconds S --trace 0|1 [--commit ID] [--out DIR]

   Prints "# " notes, single-key JSON lines for run.py
   (env, digests, end_to_end) and, last, the result line
   {"correct", "attempted", "failed", "metrics"}.  With --trace 1 the
   metrics are the per-layer ones and a span file is written to DIR. *)

let usage () =
  prerr_endline
    "usage: vbench --workload analyze-mysql|fuzz-corpus|serve-mix --seed N --seconds S --trace 0|1 \
     [--commit ID] [--out DIR]";
  exit 2

let parse argv =
  let args =
    ref
      {
        Common.workload = "";
        seed = 0;
        seconds = 10.;
        trace = false;
        commit = "unknown";
        out_dir = ".bench_run";
        probe = false;
      }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      args := { !args with Common.workload = v };
      go rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with
      | Some s -> args := { !args with Common.seed = s }
      | None -> usage ());
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0. -> args := { !args with Common.seconds = s }
      | _ -> usage ());
      go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> args := { !args with Common.trace = false }
      | "1" -> args := { !args with Common.trace = true }
      | _ -> usage ());
      go rest
    | "--commit" :: v :: rest ->
      args := { !args with Common.commit = v };
      go rest
    | "--out" :: v :: rest ->
      args := { !args with Common.out_dir = v };
      go rest
    | "--setup-probe" :: rest ->
      args := { !args with Common.probe = true };
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  !args

let () =
  let args = parse Sys.argv in
  (* absolute, because the serve workload changes directory *)
  let args =
    if Filename.is_relative args.Common.out_dir then
      { args with Common.out_dir = Filename.concat (Sys.getcwd ()) args.Common.out_dir }
    else args
  in
  Common.mkdir_p args.Common.out_dir;
  let run, offered_rate =
    match args.Common.workload with
    | "analyze-mysql" -> (Analyze_wl.run, 0.)
    | "fuzz-corpus" -> (Fuzz_wl.run, 0.)
    | "serve-mix" -> (Serve_wl.run, Serve_wl.offered_rate)
    | _ -> usage ()
  in
  if not args.Common.probe then Common.print_extra "env" (Common.stamp args ~offered_rate);
  run args
