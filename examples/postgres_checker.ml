(* The continuous checker in deployment (paper Section 4.7).

   Run with:  dune exec examples/postgres_checker.exe

   An administrator analyzes PostgreSQL's wal_sync_method once, exports the
   impact model, and then validates configuration files and updates against
   it — without re-running the symbolic analysis.  This demonstrates checker
   modes 1 (update regression) and 2 (poor current value), plus the model
   round-tripping through the registry-format file `violet analyze --export`
   writes and `violet check --model` reads. *)

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let run ~model_path ~conf_path ~old_path ~new_path =
  let target = Targets.Postgres_model.target in
  let registry = target.Violet.Pipeline.registry in

  (* one-time analysis at the vendor / QA side *)
  Fmt.pr "analyzing postgres/wal_sync_method ...@.";
  let a = Violet.Pipeline.analyze_exn target "wal_sync_method" in
  (match Violet.Pipeline.export_model a.Violet.Pipeline.model model_path with
  | Ok () -> ()
  | Error e -> failwith e);
  Fmt.pr "impact model exported to %s (%d states, %d poor)@.@." model_path
    a.Violet.Pipeline.model.Vmodel.Impact_model.explored_states
    (List.length a.Violet.Pipeline.model.Vmodel.Impact_model.poor_state_ids);

  (* the deployed checker imports the exported model *)
  let model =
    match Violet.Pipeline.import_model model_path with
    | Ok m -> m
    | Error e -> failwith e
  in

  (* mode 2: is the user's current file in a poor state? *)
  write_file conf_path
    "# production settings\nshared_buffers = 1024\nwal_sync_method = open_sync\n";
  Fmt.pr "== mode 2: checking current file (wal_sync_method = open_sync) ==@.";
  let file =
    match Vchecker.Config_file.load conf_path with Ok f -> f | Error e -> failwith e
  in
  (match Vchecker.Checker.check_current ~model ~registry ~file () with
  | Ok report -> Fmt.pr "%a@." Vchecker.Checker.pp_report report
  | Error e -> Fmt.pr "error: %s@." e);

  (* mode 1: does an update introduce a regression? *)
  write_file old_path "wal_sync_method = fdatasync\n";
  write_file new_path "wal_sync_method = open_sync\n";
  Fmt.pr "== mode 1: checking update fdatasync -> open_sync ==@.";
  let old_file =
    match Vchecker.Config_file.load old_path with Ok f -> f | Error e -> failwith e
  in
  let new_file =
    match Vchecker.Config_file.load new_path with Ok f -> f | Error e -> failwith e
  in
  (match Vchecker.Checker.check_update ~model ~registry ~old_file ~new_file () with
  | Ok report -> Fmt.pr "%a@." Vchecker.Checker.pp_report report
  | Error e -> Fmt.pr "error: %s@." e);

  (* and the safe direction must stay silent *)
  Fmt.pr "== mode 1 control: checking update open_sync -> fdatasync ==@.";
  match Vchecker.Checker.check_update ~model ~registry ~old_file:new_file ~new_file:old_file () with
  | Ok report -> Fmt.pr "%a@." Vchecker.Checker.pp_report report
  | Error e -> Fmt.pr "error: %s@." e

(* the exported model and the three config files are removed however the
   run ends *)
let () =
  let model_path = Filename.temp_file "violet_model" ".vmodel" in
  let conf_path = Filename.temp_file "postgresql" ".conf" in
  let old_path = Filename.temp_file "postgresql_old" ".conf" in
  let new_path = Filename.temp_file "postgresql_new" ".conf" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ model_path; conf_path; old_path; new_path ])
    (fun () -> run ~model_path ~conf_path ~old_path ~new_path)
