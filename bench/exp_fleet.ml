(* The fleet under load and chaos (DESIGN.md Section 5i): a supervised
   multi-process fleet — forked supervisor, N worker daemons, one router —
   driven by a single-threaded multi-connection load loop.  The load loop
   deliberately uses connections plus {!Vserve.Client.post}/{!await}
   instead of client domains: the supervisor forks, and forking is unsound
   once a domain has been spawned.  The oracle leg forks too.

   Phases and their BENCH_fleet.json gates:

   - scaling: the same load over 1/2/4 shards with a tiny worker admission
     queue — the shed rate must fall as shards are added
     ("shed_decreasing");
   - chaos A/B: seeded kills, stalls and reload corruptions under load.
     With retries on the fleet must absorb them — error rate ~ 0
     ("chaos_error_free"); with the resilience machinery off the same
     storm must draw blood ("errors_without_retries"), or the A/B proves
     nothing;
   - oracle: the vfuzz differential fleet leg on a small generated corpus —
     routed answers byte-identical to the in-process checker
     ("fleet_oracle_ok"). *)

module M = Vmodel.Impact_model
module P = Vserve.Protocol
module Client = Vserve.Client
module Server = Vserve.Server
module Reg = Vserve.Registry
module Wire = Vserve.Wire
module Topology = Vfleet.Topology
module Supervisor = Vfleet.Supervisor
module Router = Vfleet.Router
module Chaos = Vfleet.Chaos

let or_die = function
  | Ok v -> v
  | Error e ->
    Fmt.epr "bench fleet: %s@." e;
    exit 1

let mk_tmpdir () =
  let path = Filename.temp_file "vfleet_bench" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rm_rf dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let percentile xs q =
  match xs with
  | [] -> 0.
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    let idx = int_of_float (Float.ceil (q *. float_of_int n) -. 1.) in
    a.(max 0 (min (n - 1) idx))

let resolve_registry (m : M.t) =
  Option.map
    (fun t -> t.Violet.Pipeline.registry)
    (Targets.Cases.find_target m.M.system)

(* ------------------------------------------------------------------ *)
(* Fleet lifecycle                                                     *)
(* ------------------------------------------------------------------ *)

(* Fork a supervisor child running the whole fleet; the bench process only
   ever talks to the router socket (and, for chaos, reads the supervisor's
   state file).  Returns the topology and the supervisor pid. *)
let start_fleet ~run_dir ~models_dir ~shards ~retries ~max_queue =
  let topology = Topology.make ~run_dir ~shards in
  match Unix.fork () with
  | 0 ->
    let base = Supervisor.default_options ~topology ~models_dir in
    let opts =
      {
        base with
        Supervisor.worker_opts =
          (fun i ->
            {
              (base.Supervisor.worker_opts i) with
              Server.resolve_registry;
              max_queue;
            });
        router_opts =
          {
            base.Supervisor.router_opts with
            Router.retries;
            attempt_timeout_s = 1.0;
            max_pending = 1024;
          };
        probe_every_s = 0.2;
        backoff_base_s = 0.02;
      }
    in
    (match Supervisor.run opts with
    | Ok () -> ()
    | Error e -> prerr_endline ("bench fleet supervisor: " ^ e));
    Unix._exit 0
  | pid -> (topology, pid)

let stop_fleet pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* every worker up with the models loaded, so round one measures the fleet
   and not its boot *)
let await_fleet (topology : Topology.t) =
  List.iter
    (fun i ->
      let c =
        or_die (Client.connect_retry ~deadline_s:20.0 (Topology.worker_addr topology i))
      in
      let rec wait () =
        match Client.call ~timeout_s:5.0 c P.Health with
        | Ok (P.Health_info { models = _ :: _; _ }) -> ()
        | _ ->
          Unix.sleepf 0.02;
          wait ()
      in
      wait ();
      Client.close c)
    (List.init topology.Topology.shards Fun.id)

(* failover, overload re-dispatch and restart counters out of the router's
   aggregated stats — the bench doubles as a live test of the fleet stats
   verb *)
let fleet_counters client =
  match Client.call ~timeout_s:10.0 client P.Stats with
  | Ok (P.Stats_info w) ->
    let top name =
      Option.value ~default:0 (Option.bind (Wire.member name w) Wire.to_int)
    in
    let restarts =
      match Option.bind (Wire.member "shards" w) Wire.to_list with
      | None -> 0
      | Some items ->
        List.fold_left
          (fun acc it ->
            acc
            + Option.value ~default:0 (Option.bind (Wire.member "restarts" it) Wire.to_int))
          0 items
    in
    (top "failovers", top "overload_redispatches", restarts)
  | Ok _ | Error _ -> (0, 0, 0)

(* ------------------------------------------------------------------ *)
(* Load generation: rounds of one in-flight request per connection      *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable reports : int;
  mutable shed : int;  (* [overloaded] answers *)
  mutable degraded : int;  (* reports served from the fallback widening *)
  mutable errors : int;  (* everything else: error responses, transport *)
  mutable lats : float list;
}

let drive_load ~router_addr ~keys ~conns ~rounds ?(on_round = fun _ -> ()) () =
  let cs =
    Array.init conns (fun _ -> or_die (Client.connect_retry ~deadline_s:10.0 router_addr))
  in
  let t = { reports = 0; shed = 0; degraded = 0; errors = 0; lats = [] } in
  let nk = Array.length keys in
  let t0 = Unix.gettimeofday () in
  for round = 0 to rounds - 1 do
    on_round round;
    let posted =
      Array.mapi
        (fun i c ->
          let key = keys.(((round * conns) + i) mod nk) in
          let tpost = Unix.gettimeofday () in
          match Client.post c (P.Check_current { key; config = "" }) with
          | Ok id -> Some (id, tpost)
          | Error _ ->
            t.errors <- t.errors + 1;
            None)
        cs
    in
    Array.iteri
      (fun i slot ->
        match slot with
        | None -> ()
        | Some (id, tpost) -> begin
          match Client.await ~timeout_s:15.0 cs.(i) id with
          | Ok (P.Report o) ->
            t.reports <- t.reports + 1;
            if o.P.degraded then t.degraded <- t.degraded + 1;
            t.lats <- ((Unix.gettimeofday () -. tpost) *. 1e6) :: t.lats
          | Ok (P.Error_resp { code = P.Overloaded; _ }) -> t.shed <- t.shed + 1
          | Ok _ | Error _ -> t.errors <- t.errors + 1
        end)
      posted
  done;
  let wall = Unix.gettimeofday () -. t0 in
  Array.iter Client.close cs;
  (t, wall)

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)
(* ------------------------------------------------------------------ *)

type phase = {
  ph_label : string;
  ph_shards : int;
  ph_requests : int;
  ph_reports : int;
  ph_shed : int;
  ph_degraded : int;
  ph_errors : int;
  ph_failovers : int;
  ph_overload_redispatches : int;
  ph_restarts : int;
  ph_wall_s : float;
  ph_served_per_s : float;  (** reports, degraded ones included *)
  ph_shed_per_s : float;  (** [overloaded] answers *)
  ph_p50_us : float;
  ph_p99_us : float;
}

let shed_rate p =
  if p.ph_requests = 0 then 0.
  else float_of_int p.ph_shed /. float_of_int p.ph_requests

let error_rate p =
  if p.ph_requests = 0 then 0.
  else float_of_int p.ph_errors /. float_of_int p.ph_requests

let finish_phase ~label ~shards ~topology ~pid (t, wall) =
  let control =
    or_die (Client.connect_retry ~deadline_s:10.0 (Topology.router_addr topology))
  in
  let failovers, overload_redispatches, restarts = fleet_counters control in
  Client.close control;
  stop_fleet pid;
  let requests = t.reports + t.shed + t.errors in
  let per_s n = if wall > 0. then float_of_int n /. wall else 0. in
  {
    ph_label = label;
    ph_shards = shards;
    ph_requests = requests;
    ph_reports = t.reports;
    ph_shed = t.shed;
    ph_degraded = t.degraded;
    ph_errors = t.errors;
    ph_failovers = failovers;
    ph_overload_redispatches = overload_redispatches;
    ph_restarts = restarts;
    ph_wall_s = wall;
    ph_served_per_s = per_s t.reports;
    ph_shed_per_s = per_s t.shed;
    ph_p50_us = percentile t.lats 0.50;
    ph_p99_us = percentile t.lats 0.99;
  }

let scaling_phase ~models_dir ~keys ~shards =
  let run_dir = mk_tmpdir () in
  let topology, pid =
    start_fleet ~run_dir ~models_dir ~shards ~retries:true ~max_queue:2
  in
  await_fleet topology;
  let res =
    drive_load
      ~router_addr:(Topology.router_addr topology)
      ~keys ~conns:24 ~rounds:12 ()
  in
  let p =
    finish_phase ~label:(Printf.sprintf "scale-%d" shards) ~shards ~topology ~pid res
  in
  rm_rf run_dir;
  p

let chaos_phase ~models_dir ~keys ~retries ~seed =
  let shards = 3 in
  let run_dir = mk_tmpdir () in
  let topology, pid =
    start_fleet ~run_dir ~models_dir ~shards ~retries ~max_queue:32
  in
  await_fleet topology;
  let g = Vfuzz.Sprng.make seed in
  let draws =
    {
      Chaos.draw_int = (fun n -> Vfuzz.Sprng.int g n);
      draw_float = (fun () -> float_of_int (Vfuzz.Sprng.int g 1_000_000) /. 1e6);
    }
  in
  let plan =
    Chaos.plan ~draws ~shards ~keys:[ keys.(0) ] ~events:8
  in
  let actions = ref plan in
  let outcome = ref { Chaos.killed = 0; stalled = 0; corrupted = 0; stage_rejections = 0 } in
  let control =
    or_die (Client.connect_retry ~deadline_s:10.0 (Topology.router_addr topology))
  in
  let pid_of_shard i =
    match (Topology.read_shards topology).(i) with
    | Some s when s.Topology.pid > 0 -> Some s.Topology.pid
    | _ -> None
  in
  let on_round round =
    if round > 0 && round mod 3 = 0 then
      match !actions with
      | [] -> ()
      | a :: rest ->
        actions := rest;
        outcome := Chaos.apply ~pid_of_shard ~router:control ~models_dir !outcome a
  in
  let res =
    drive_load
      ~router_addr:(Topology.router_addr topology)
      ~keys ~conns:12 ~rounds:30 ~on_round ()
  in
  let label = if retries then "chaos-retries" else "chaos-no-retries" in
  Client.close control;
  let p = finish_phase ~label ~shards ~topology ~pid res in
  rm_rf run_dir;
  (p, !outcome)

(* ------------------------------------------------------------------ *)
(* JSON and driver                                                     *)
(* ------------------------------------------------------------------ *)

let phase_json p =
  Wire.Obj
    [
      ("label", Wire.String p.ph_label);
      ("shards", Wire.Int p.ph_shards);
      ("requests", Wire.Int p.ph_requests);
      ("reports", Wire.Int p.ph_reports);
      ("shed", Wire.Int p.ph_shed);
      ("degraded", Wire.Int p.ph_degraded);
      ("errors", Wire.Int p.ph_errors);
      ("failovers", Wire.Int p.ph_failovers);
      ("overload_redispatches", Wire.Int p.ph_overload_redispatches);
      ("restarts", Wire.Int p.ph_restarts);
      ("wall_s", Wire.Float (Util.round 4 p.ph_wall_s));
      ("served_per_s", Wire.Float (Util.round 1 p.ph_served_per_s));
      ("shed_per_s", Wire.Float (Util.round 1 p.ph_shed_per_s));
      ("p50_us", Wire.Float (Util.round 1 p.ph_p50_us));
      ("p99_us", Wire.Float (Util.round 1 p.ph_p99_us));
      ("shed_rate", Wire.Float (Util.round 4 (shed_rate p)));
      ("error_rate", Wire.Float (Util.round 4 (error_rate p)));
    ]

let run_phases () =
  let models_dir = mk_tmpdir () in
  let target = Targets.Cases.target_of "mysql" in
  let model = (Violet.Pipeline.analyze_exn target "autocommit").Violet.Pipeline.model in
  (* one model under several keys: the ring spreads keys, not requests, so
     distinct keys are what scaling and failover act on *)
  let keys =
    Array.init 8 (fun i -> Printf.sprintf "mysql-autocommit-r%d" i)
  in
  Array.iter
    (fun key ->
      or_die (Violet.Pipeline.export_model model (Reg.model_file ~dir:models_dir ~key)))
    keys;
  let seed = !Util.fuzz_seed in

  let scale1 = scaling_phase ~models_dir ~keys ~shards:1 in
  let scale2 = scaling_phase ~models_dir ~keys ~shards:2 in
  let scale4 = scaling_phase ~models_dir ~keys ~shards:4 in
  let chaos_on, outcome_on = chaos_phase ~models_dir ~keys ~retries:true ~seed in
  let chaos_off, outcome_off = chaos_phase ~models_dir ~keys ~retries:false ~seed in

  (* differential fleet leg: routed answers must be byte-identical to the
     in-process checker *)
  let specs = Vfuzz.Generate.corpus ~seed ~count:2 () in
  let oracle_reports =
    List.map (fun s -> Vfuzz.Oracle.check ~daemon:false ~fleet:true ~inc:false s) specs
  in
  let fleet_checks =
    List.fold_left (fun n r -> n + r.Vfuzz.Oracle.r_fleet_checks) 0 oracle_reports
  in
  let fleet_oracle_ok =
    fleet_checks > 0 && List.for_all Vfuzz.Oracle.agreed oracle_reports
  in

  let phases = [ scale1; scale2; scale4; chaos_on; chaos_off ] in
  Util.print_table
    ~header:
      [
        "phase"; "shards"; "requests"; "served/s"; "shed/s"; "p99 us"; "shed"; "errors";
        "degraded"; "failovers"; "overload re-dispatches"; "restarts";
      ]
    (List.map
       (fun p ->
         [
           p.ph_label;
           Util.i0 p.ph_shards;
           Util.i0 p.ph_requests;
           Util.f1 p.ph_served_per_s;
           Util.f1 p.ph_shed_per_s;
           Util.f1 p.ph_p99_us;
           Util.i0 p.ph_shed;
           Util.i0 p.ph_errors;
           Util.i0 p.ph_degraded;
           Util.i0 p.ph_failovers;
           Util.i0 p.ph_overload_redispatches;
           Util.i0 p.ph_restarts;
         ])
       phases);
  Util.note "chaos (retries on): %d killed, %d stalled, %d corrupted (%d stage rejections)"
    outcome_on.Chaos.killed outcome_on.Chaos.stalled outcome_on.Chaos.corrupted
    outcome_on.Chaos.stage_rejections;

  let shed_decreasing =
    shed_rate scale1 > 0.
    && shed_rate scale4 < shed_rate scale1
    && shed_rate scale2 <= shed_rate scale1
  in
  let chaos_error_free = error_rate chaos_on <= 0.01 in
  let errors_without_retries = chaos_off.ph_errors > 0 in
  if not shed_decreasing then
    Util.note "WARNING: shed rate did not fall with shard count (%.3f / %.3f / %.3f)"
      (shed_rate scale1) (shed_rate scale2) (shed_rate scale4);
  if not chaos_error_free then
    Util.note "WARNING: chaos drew errors through the resilient fleet (rate %.3f)"
      (error_rate chaos_on);
  if not errors_without_retries then
    Util.note "WARNING: chaos without retries drew no errors — the A/B proves nothing";
  if not fleet_oracle_ok then
    Util.note "WARNING: fleet oracle leg disagreed or compared nothing";
  Util.note "shed_decreasing: %s; chaos_error_free: %s; errors_without_retries: %s; fleet_oracle_ok: %s"
    (Util.yes_no shed_decreasing) (Util.yes_no chaos_error_free)
    (Util.yes_no errors_without_retries) (Util.yes_no fleet_oracle_ok);

  let outcome_json o =
    Wire.Obj
      [
        ("killed", Wire.Int o.Chaos.killed);
        ("stalled", Wire.Int o.Chaos.stalled);
        ("corrupted", Wire.Int o.Chaos.corrupted);
        ("stage_rejections", Wire.Int o.Chaos.stage_rejections);
      ]
  in
  Util.write_bench "fleet"
    [
      ("seed", Wire.Int seed);
      ("shed_decreasing", Wire.Bool shed_decreasing);
      ("chaos_error_free", Wire.Bool chaos_error_free);
      ("errors_without_retries", Wire.Bool errors_without_retries);
      ("fleet_oracle_ok", Wire.Bool fleet_oracle_ok);
      ("fleet_checks", Wire.Int fleet_checks);
      ("phases", Wire.List (List.map phase_json phases));
      ("chaos_outcome_retries", outcome_json outcome_on);
      ("chaos_outcome_no_retries", outcome_json outcome_off);
    ];
  rm_rf models_dir

let run () =
  Util.section "Fleet: shard scaling, chaos A/B, differential oracle";
  run_phases ()
