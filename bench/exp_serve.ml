(* The serving layer under load (DESIGN.md Section 5g): a forked daemon on a
   Unix socket, driven from this one process over several connections in
   rounds of one in-flight request per connection (bench fleet's load
   loop), in three phases:

   - steady: a few clients and a deep queue; p50, p99 and req/s, not gated;
   - saturation: a tiny admission queue under many clients; the shed counter
     must be non-zero ("shed_nonzero":true, a nightly CI gate);
   - overload degradation: a microscopic per-request deadline, so queue wait
     pushes requests past the shed pressure and the daemon answers with the
     conservative widening instead of erroring ("degraded_served":true, also
     gated).  The first check the daemon runs after a read can start inside
     its 1 µs budget and run in full, so not every answer is degraded.

   The daemon is forked, so this experiment must run before anything in
   the process spawns a domain.  Results go to BENCH_serve.json. *)

module M = Vmodel.Impact_model
module P = Vserve.Protocol
module Server = Vserve.Server
module Client = Vserve.Client
module Reg = Vserve.Registry
module Wire = Vserve.Wire

let or_die = function
  | Ok v -> v
  | Error e ->
    Fmt.epr "bench serve: %s@." e;
    exit 1

let mk_tmpdir () =
  let path = Filename.temp_file "vserve_bench" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let percentile xs q =
  match xs with
  | [] -> 0.
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    let idx = int_of_float (Float.ceil (q *. float_of_int n) -. 1.) in
    a.(max 0 (min (n - 1) idx))

type phase = {
  ph_label : string;
  ph_requests : int;  (** responses received (reports + sheds) *)
  ph_reports : int;
  ph_shed : int;  (** [overloaded] responses *)
  ph_degraded : int;  (** reports served degraded-only *)
  ph_wall_s : float;
  ph_req_per_s : float;
  ph_p50_us : float;
  ph_p99_us : float;
}

let resolve_registry (m : M.t) =
  Option.map
    (fun t -> t.Violet.Pipeline.registry)
    (Targets.Cases.find_target m.M.system)

let rec await_model c =
  match or_die (Client.call c P.Health) with
  | P.Health_info { models = _ :: _; _ } -> ()
  | _ ->
    Unix.sleepf 0.02;
    await_model c

let drive ~label ~models_dir ~max_queue ~deadline ~clients ~per_client =
  let sock = Filename.temp_file "vserve_bench" ".sock" in
  Sys.remove sock;
  let opts =
    {
      (Server.default_options ~addr:(`Unix sock) ~models_dir) with
      Server.resolve_registry;
      max_queue;
      request_deadline_s = deadline;
      refresh_every_s = 0.05;
    }
  in
  flush_all ();
  let srv =
    match Unix.fork () with
    | 0 -> Unix._exit (match Server.run opts with Ok () -> 0 | Error _ -> 1 | exception _ -> 2)
    | pid -> pid
  in
  let control = or_die (Client.connect_retry (`Unix sock)) in
  await_model control;
  let req = P.Check_current { key = "mysql-autocommit"; config = "" } in
  let cs = Array.init clients (fun _ -> or_die (Client.connect (`Unix sock))) in
  let lats = ref [] and reports = ref 0 and shed = ref 0 and degraded = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to per_client do
    let posted = Array.map (fun c -> (Unix.gettimeofday (), Client.post c req)) cs in
    Array.iteri
      (fun i (t, id) ->
        match Result.bind id (Client.await cs.(i)) with
        | Ok (P.Report o) ->
          incr reports;
          if o.P.degraded then incr degraded;
          lats := ((Unix.gettimeofday () -. t) *. 1e6) :: !lats
        | Ok (P.Error_resp { code = P.Overloaded; _ }) -> incr shed
        | Ok _ | Error _ -> ())
      posted
  done;
  let wall = Unix.gettimeofday () -. t0 in
  Array.iter Client.close cs;
  let lats = !lats and reports = !reports and shed = !shed and degraded = !degraded in
  ignore (Client.call control P.Shutdown);
  Client.close control;
  (match Unix.waitpid [] srv with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Fmt.epr "bench serve: the %s daemon did not exit cleanly@." label);
  let answered = reports + shed in
  {
    ph_label = label;
    ph_requests = answered;
    ph_reports = reports;
    ph_shed = shed;
    ph_degraded = degraded;
    ph_wall_s = wall;
    ph_req_per_s = (if wall > 0. then float_of_int answered /. wall else 0.);
    ph_p50_us = percentile lats 0.50;
    ph_p99_us = percentile lats 0.99;
  }

let phase_json p =
  Wire.Obj
    [
      ("requests", Wire.Int p.ph_requests);
      ("reports", Wire.Int p.ph_reports);
      ("shed", Wire.Int p.ph_shed);
      ("degraded", Wire.Int p.ph_degraded);
      ("wall_s", Wire.Float (Util.round 4 p.ph_wall_s));
      ("req_per_s", Wire.Float (Util.round 1 p.ph_req_per_s));
      ("p50_us", Wire.Float (Util.round 1 p.ph_p50_us));
      ("p99_us", Wire.Float (Util.round 1 p.ph_p99_us));
      ( "shed_rate",
        Wire.Float
          (Util.round 4
             (if p.ph_requests = 0 then 0.
              else float_of_int p.ph_shed /. float_of_int p.ph_requests)) );
    ]

let run_phases () =
  let models_dir = mk_tmpdir () in
  let target = Targets.Cases.target_of "mysql" in
  let model = (Violet.Pipeline.analyze_exn target "autocommit").Violet.Pipeline.model in
  or_die
    (Violet.Pipeline.export_model model
       (Reg.model_file ~dir:models_dir ~key:"mysql-autocommit"));
  let steady =
    drive ~label:"steady" ~models_dir ~max_queue:64 ~deadline:None ~clients:4
      ~per_client:25
  in
  let saturated =
    drive ~label:"saturated" ~models_dir ~max_queue:2 ~deadline:None ~clients:8
      ~per_client:30
  in
  let degraded =
    drive ~label:"deadline" ~models_dir ~max_queue:64 ~deadline:(Some 1e-6) ~clients:2
      ~per_client:10
  in
  let phases = [ steady; saturated; degraded ] in
  Util.print_table
    ~header:[ "phase"; "requests"; "req/s"; "p50 us"; "p99 us"; "shed"; "degraded" ]
    (List.map
       (fun p ->
         [
           p.ph_label;
           Util.i0 p.ph_requests;
           Util.f1 p.ph_req_per_s;
           Util.f1 p.ph_p50_us;
           Util.f1 p.ph_p99_us;
           Util.i0 p.ph_shed;
           Util.i0 p.ph_degraded;
         ])
       phases);
  let shed_nonzero = saturated.ph_shed > 0 in
  let degraded_served = degraded.ph_degraded > 0 in
  if not shed_nonzero then
    Util.note "WARNING: saturation shed no load — admission control untested";
  if not degraded_served then
    Util.note "WARNING: deadline pressure produced no degraded answers";
  Util.write_bench "serve"
    [
      ("shed_nonzero", Wire.Bool shed_nonzero);
      ("degraded_served", Wire.Bool degraded_served);
      ("steady", phase_json steady);
      ("saturated", phase_json saturated);
      ("deadline", phase_json degraded);
    ]

let run () =
  Util.section "Serving: steady load, admission control, overload degradation";
  run_phases ()
