(* Tests for the fleet layer: hash-ring determinism, topology state-file
   atomicity, client retry/timeout behavior, connection write-failure
   accounting, seeded chaos planning — and, behind a fork (so this suite
   must run before anything spawns a domain), a live supervised fleet:
   end-to-end byte identity through the router, kill -9 with requests
   genuinely in flight, crash-loop breaker tripping, and two-phase reload
   with a corrupt-stage abort. *)

module P = Vserve.Protocol
module Client = Vserve.Client
module Server = Vserve.Server
module Conn = Vserve.Conn
module Reg = Vserve.Registry
module Wire = Vserve.Wire
module Checker = Vchecker.Checker
module M = Vmodel.Impact_model
module Topology = Vfleet.Topology
module Ring = Vfleet.Hash_ring
module Supervisor = Vfleet.Supervisor
module Router = Vfleet.Router
module Chaos = Vfleet.Chaos

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let or_fail = function Ok v -> v | Error e -> Alcotest.fail e

let mk_tmpdir () =
  let path = Filename.temp_file "vfleet" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* jobs = 1 so building the fixture never spawns a domain: the fleet tests
   fork, and fork is unsound once any domain exists *)
let fixture_model =
  let m =
    lazy
      (let opts = { Violet.Pipeline.default_options with Violet.Pipeline.jobs = 1 } in
       (Violet.Pipeline.analyze_exn ~opts Fixtures.target "autocommit").Violet.Pipeline.model)
  in
  fun () -> Lazy.force m

let export_fixture ?(tweak = fun m -> m) dir key =
  let path = Reg.model_file ~dir ~key in
  or_fail (Violet.Pipeline.export_model (tweak (fixture_model ())) path);
  path

(* ------------------------------------------------------------------ *)
(* Hash ring                                                           *)
(* ------------------------------------------------------------------ *)

let test_ring_deterministic () =
  let a = Ring.make ~shards:4 () and b = Ring.make ~shards:4 () in
  let keys = List.init 50 (fun i -> Printf.sprintf "model-%d" i) in
  List.iter
    (fun k ->
      check Alcotest.int ("owner of " ^ k) (Ring.owner a k) (Ring.owner b k);
      check (Alcotest.list Alcotest.int) ("preference of " ^ k) (Ring.preference a k)
        (Ring.preference b k))
    keys

let test_ring_preference_complete () =
  let ring = Ring.make ~shards:5 () in
  List.iter
    (fun k ->
      let pref = Ring.preference ring k in
      check Alcotest.int "covers every shard" 5 (List.length pref);
      check
        (Alcotest.list Alcotest.int)
        "each shard exactly once" [ 0; 1; 2; 3; 4 ]
        (List.sort compare pref);
      check Alcotest.int "owner heads the list" (Ring.owner ring k) (List.hd pref))
    (List.init 50 (fun i -> Printf.sprintf "key-%d" i))

let test_ring_distribution () =
  let shards = 4 in
  let ring = Ring.make ~shards () in
  let counts = Array.make shards 0 in
  for i = 0 to 199 do
    let o = Ring.owner ring (Printf.sprintf "system-%d--param" i) in
    counts.(o) <- counts.(o) + 1
  done;
  Array.iteri
    (fun i n ->
      if n = 0 then Alcotest.fail (Printf.sprintf "shard %d owns no keys out of 200" i))
    counts

(* Ownership at 64 points per shard.  perfbench's serve-mix attributes
   router hops with its own default ring, so the ring the router builds
   must not drift from it. *)
let test_ring_golden () =
  List.iter
    (fun (shards, key, pref) ->
      let ring = Ring.make ~shards () in
      let what = Printf.sprintf "%s at %d shards" key shards in
      check Alcotest.int ("owner of " ^ what) (List.hd pref) (Ring.owner ring key);
      check (Alcotest.list Alcotest.int) ("preference of " ^ what) pref (Ring.preference ring key))
    [
      (2, "mysql", [ 0; 1 ]);
      (2, "postgres", [ 0; 1 ]);
      (2, "apache", [ 1; 0 ]);
      (2, "squid", [ 0; 1 ]);
      (3, "mysql", [ 0; 2; 1 ]);
      (3, "postgres", [ 0; 2; 1 ]);
      (3, "apache", [ 1; 0; 2 ]);
      (3, "squid", [ 2; 0; 1 ]);
    ]

(* ------------------------------------------------------------------ *)
(* Topology state file                                                 *)
(* ------------------------------------------------------------------ *)

let test_topology_state_file () =
  let run_dir = mk_tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf run_dir) @@ fun () ->
  let t = Topology.make ~run_dir ~shards:3 in
  check Alcotest.bool "no state before first publish" true (Topology.read_state t = None);
  Topology.write_state t (Wire.Obj [ ("shards", Wire.List []) ]);
  check (Alcotest.option Alcotest.string) "state round-trips" (Some "{\"shards\":[]}")
    (Topology.read_state t);
  let shard1 =
    { Topology.id = 1; pid = 42; state = "up"; restarts = 2; breaker_trips = 0; failures = 1 }
  in
  Topology.write_state t (Topology.state_to_wire ~pid:7 ~router_pid:8 [ shard1 ]);
  check (Alcotest.option Alcotest.string) "replacement is complete"
    (Some
       "{\"pid\":7,\"router_pid\":8,\"shards\":[{\"id\":1,\"pid\":42,\"state\":\"up\",\"restarts\":2,\"breaker_trips\":0,\"failures\":1,\"stats\":null}]}")
    (Topology.read_state t);
  check Alcotest.bool "the decoder reads what the encoder wrote" true
    (Topology.read_shards t = [| None; Some shard1; None |]);
  (* no temp debris left behind by the atomic replace *)
  let files = Sys.readdir run_dir in
  check Alcotest.int "only the state file remains" 1 (Array.length files);
  match Topology.worker_addr t 2 with
  | `Unix p -> check Alcotest.bool "shard socket in run_dir" true (Filename.dirname p = run_dir)
  | `Tcp _ -> Alcotest.fail "expected a unix socket"

(* ------------------------------------------------------------------ *)
(* Client: retry deadline and receive timeout                          *)
(* ------------------------------------------------------------------ *)

let test_connect_retry_gives_up () =
  let t0 = Unix.gettimeofday () in
  match
    Client.connect_retry ~deadline_s:0.3 ~base_delay_s:0.02
      (`Unix "/nonexistent/vfleet-test.sock")
  with
  | Ok _ -> Alcotest.fail "connect to a nonexistent socket must fail"
  | Error msg ->
    let elapsed = Unix.gettimeofday () -. t0 in
    check Alcotest.bool "respected the deadline" true (elapsed < 5.0);
    (* the message must carry the attempt count and the last cause *)
    let has needle =
      let rec go i =
        i + String.length needle <= String.length msg
        && (String.sub msg i (String.length needle) = needle || go (i + 1))
      in
      go 0
    in
    check Alcotest.bool "reports the attempts" true (has "gave up after");
    check Alcotest.bool "reports the cause" true (has "last error")

let test_receive_timeout () =
  let dir = mk_tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "silent.sock" in
  (* a listener that accepts (the backlog does) but never answers *)
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close listen_fd) @@ fun () ->
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 4;
  let c = or_fail (Client.connect (`Unix path)) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  match Client.call ~timeout_s:0.2 c P.Health with
  | Ok _ -> Alcotest.fail "a silent server cannot produce a response"
  | Error _ ->
    check Alcotest.bool "timed out promptly" true (Unix.gettimeofday () -. t0 < 3.0)

let test_conn_write_failed_counter () =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close b;
  let failed = ref 0 in
  let conn = Conn.make ~on_write_failed:(fun () -> incr failed) a in
  (* writing into a closed peer: EPIPE, possibly only once buffers fill *)
  let line = Wire.String (String.make 65533 'x') in
  let attempts = ref 0 in
  while (not (Conn.closed conn)) && !attempts < 100 do
    incr attempts;
    Conn.send conn line
  done;
  check Alcotest.bool "connection closed on write failure" true (Conn.closed conn);
  check Alcotest.int "failure counted exactly once" 1 !failed;
  (* writes to a closed connection are no-ops, not double-counted *)
  Conn.send conn line;
  check Alcotest.int "no double count" 1 !failed

(* ------------------------------------------------------------------ *)
(* Chaos planning                                                      *)
(* ------------------------------------------------------------------ *)

let mk_draws seed =
  let st = Random.State.make [| seed |] in
  {
    Chaos.draw_int = (fun n -> Random.State.int st n);
    draw_float = (fun () -> Random.State.float st 1.0);
  }

let test_chaos_plan_deterministic () =
  let plan seed = Chaos.plan ~draws:(mk_draws seed) ~shards:3 ~keys:[ "k" ] ~events:20 in
  check
    (Alcotest.list Alcotest.string)
    "same seed, same plan"
    (List.map Chaos.action_to_string (plan 7))
    (List.map Chaos.action_to_string (plan 7));
  List.iter
    (fun a ->
      match a with
      | Chaos.Kill i -> check Alcotest.bool "kill in range" true (i >= 0 && i < 3)
      | Chaos.Stall { shard; for_s } ->
        check Alcotest.bool "stall in range" true (shard >= 0 && shard < 3);
        check Alcotest.bool "stall bounded" true (for_s >= 0.1 && for_s <= 0.6)
      | Chaos.Corrupt_reload { key } -> check Alcotest.string "corrupt key" "k" key)
    (plan 7);
  (* without reloadable keys, the corruption slots become kills *)
  List.iter
    (function
      | Chaos.Corrupt_reload _ -> Alcotest.fail "no corruption without keys"
      | Chaos.Kill _ | Chaos.Stall _ -> ())
    (Chaos.plan ~draws:(mk_draws 7) ~shards:3 ~keys:[] ~events:20)

(* ------------------------------------------------------------------ *)
(* Live fleet (fork-based: everything below skips if a domain exists)  *)
(* ------------------------------------------------------------------ *)

let skip_if_domains () =
  if Vpar.Pool.spawned_domains () then
    Alcotest.skip ()

let start_fleet ?spawn_worker ?(crashloop_limit = 5) ?max_queue ?worker_models_dir ~run_dir
    ~models_dir ~shards () =
  let topology = Topology.make ~run_dir ~shards in
  match Unix.fork () with
  | 0 ->
    let base = Supervisor.default_options ~topology ~models_dir in
    let opts =
      {
        base with
        Supervisor.worker_opts =
          (fun i ->
            let w = base.Supervisor.worker_opts i in
            {
              w with
              Server.resolve_registry = (fun _ -> Some Fixtures.registry);
              max_queue = Option.value ~default:w.Server.max_queue max_queue;
              models_dir =
                (match worker_models_dir with Some dir -> dir i | None -> w.Server.models_dir);
            });
        router_opts =
          { base.Supervisor.router_opts with Router.attempt_timeout_s = 1.0 };
        probe_every_s = 0.2;
        backoff_base_s = 0.02;
        crashloop_limit;
        crashloop_cooldown_s = 60.0;
        spawn_worker;
      }
    in
    (match Supervisor.run opts with Ok () -> () | Error _ -> ());
    Unix._exit 0
  | pid -> (topology, pid)

let stop_fleet pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let shard_field topology i name =
  match Topology.read_state topology with
  | None -> None
  | Some contents -> begin
    match Wire.of_string contents with
    | Error _ -> None
    | Ok v ->
      Option.bind (Wire.member "shards" v) Wire.to_list
      |> Option.map
           (List.filter_map (fun it ->
                match Option.bind (Wire.member "id" it) Wire.to_int with
                | Some id when id = i -> Wire.member name it
                | _ -> None))
      |> Option.map (function f :: _ -> Some f | [] -> None)
      |> Option.join
  end

(* With [~replacing:pid], also wait for a live pid other than [pid]: after
   a kill -9 the state file reads the victim's pre-kill "up" until the
   supervisor reaps it. *)
let await_state ?replacing topology i ~want ~deadline_s =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let replaced () =
    match replacing, Option.bind (shard_field topology i "pid") Wire.to_int with
    | None, _ -> true
    | Some old, Some p -> p <> 0 && p <> old
    | Some _, None -> false
  in
  let rec wait () =
    match Option.bind (shard_field topology i "state") Wire.to_str with
    | Some s when s = want && replaced () -> ()
    | got ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail
          (Printf.sprintf "shard %d never reached state %s (last: %s)" i want
             (Option.value ~default:"<none>" got))
      else begin
        Unix.sleepf 0.05;
        wait ()
      end
  in
  wait ()

(* One connection per attempt: just after a kill -9 the state file can
   still read "up" and a connect can reach the dying worker's socket,
   which then resets; the restarted worker listens on a new one. *)
let await_worker topology i =
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec wait () =
    let remaining = Float.max 0.1 (deadline -. Unix.gettimeofday ()) in
    let c = or_fail (Client.connect_retry ~deadline_s:remaining (Topology.worker_addr topology i)) in
    let health = Client.call ~timeout_s:5.0 c P.Health in
    Client.close c;
    match health with
    | Ok (P.Health_info { models = _ :: _; _ }) -> ()
    | _ ->
      if Unix.gettimeofday () > deadline then Alcotest.fail "worker never loaded models"
      else begin
        Unix.sleepf 0.05;
        wait ()
      end
  in
  wait ()

let expect_report = function
  | P.Report o -> o
  | P.Error_resp { code; message } ->
    Alcotest.fail
      (Printf.sprintf "fleet error %s: %s" (P.error_code_to_string code) message)
  | _ -> Alcotest.fail "expected a report"

let findings_bytes fs = Wire.to_string (P.findings_to_wire fs)

(* every ["pid":N] in the text, in order, as scripts/check.sh greps them *)
let pids_in_order text =
  let key = "\"pid\":" in
  let n = String.length text and k = String.length key in
  let rec go i acc =
    if i + k > n then List.rev acc
    else if String.sub text i k = key then begin
      let j = ref (i + k) in
      while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
      go !j (int_of_string (String.sub text (i + k) (!j - i - k)) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

(* The headline robustness test: byte identity through the router, then a
   kill -9 with requests genuinely in flight (the victim is SIGSTOPped
   first, so its requests cannot have been answered), then two-phase
   reload — happy path and corrupt-stage abort — against the same fleet. *)
let test_fleet_end_to_end () =
  skip_if_domains ();
  let dir = mk_tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let models_dir = Filename.concat dir "models" in
  Unix.mkdir models_dir 0o700;
  let shards = 2 in
  (* a key each shard owns, found on the same deterministic ring the
     router builds *)
  let ring = Ring.make ~shards () in
  let key_owned_by target_shard =
    let rec go i =
      let k = Printf.sprintf "mini-%d" i in
      if Ring.owner ring k = target_shard then k else go (i + 1)
    in
    go 0
  in
  let key0 = key_owned_by 0 and key1 = key_owned_by 1 in
  let model_path = export_fixture models_dir key0 in
  let _ = export_fixture models_dir key1 in
  let run_dir = Filename.concat dir "run" in
  let topology, sup_pid = start_fleet ~run_dir ~models_dir ~shards () in
  Fun.protect ~finally:(fun () -> stop_fleet sup_pid) @@ fun () ->
  await_worker topology 0;
  await_worker topology 1;
  let c = or_fail (Client.connect_retry ~deadline_s:20.0 (Topology.router_addr topology)) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* byte identity: routed answer == in-process checker on the same file *)
  let ref_model = or_fail (Violet.Pipeline.import_model model_path) in
  let local =
    or_fail
      (Checker.check_current ~model:ref_model ~registry:Fixtures.registry
         ~file:(Vchecker.Config_file.parse "") ())
  in
  let served =
    expect_report (or_fail (Client.call ~timeout_s:20.0 c (P.Check_current { key = key0; config = "" })))
  in
  check Alcotest.string "routed findings byte-identical"
    (findings_bytes local.Checker.findings)
    (findings_bytes served.P.findings);
  check Alcotest.bool "findings non-empty" true (served.P.findings <> []);
  check Alcotest.bool "not degraded" true (not served.P.degraded);
  (* kill -9 with requests in flight: stall the victim so its requests are
     pinned mid-flight, post, kill, and every request must still be
     answered (failover re-dispatches to the sibling replica) *)
  (* workers and the router can answer before the supervisor first
     publishes the state file *)
  await_state topology 0 ~want:"up" ~deadline_s:20.0;
  let victim_pid =
    match Option.bind (shard_field topology 0 "pid") Wire.to_int with
    | Some p when p > 0 -> p
    | _ -> Alcotest.fail "no pid for shard 0 in the state file"
  in
  (* scripts/check.sh and CI kill the state file's second "pid" *)
  (match pids_in_order (Option.value ~default:"" (Topology.read_state topology)) with
  | first :: second :: _ ->
    check Alcotest.int "first pid is the supervisor's" sup_pid first;
    check Alcotest.int "second pid is shard 0's" victim_pid second
  | _ -> Alcotest.fail "state file lists fewer than two pids");
  Unix.kill victim_pid Sys.sigstop;
  let extra =
    List.init 3 (fun _ -> or_fail (Client.connect_retry (Topology.router_addr topology)))
  in
  Fun.protect ~finally:(fun () -> List.iter Client.close extra) @@ fun () ->
  let posted =
    List.map
      (fun conn -> (conn, or_fail (Client.post conn (P.Check_current { key = key0; config = "" }))))
      extra
  in
  (* let the router dispatch onto the stalled worker before the kill, so
     the requests are pinned in flight on the victim when it dies *)
  Unix.sleepf 0.3;
  Unix.kill victim_pid Sys.sigkill;
  List.iter
    (fun (conn, id) ->
      let resp = expect_report (or_fail (Client.await ~timeout_s:20.0 conn id)) in
      check Alcotest.bool "in-flight request answered with real findings" true
        (resp.P.findings <> []))
    posted;
  (* the supervisor restarts the victim; wait for it to come back *)
  await_state topology 0 ~want:"up" ~replacing:victim_pid ~deadline_s:20.0;
  await_worker topology 0;
  (* fleet stats: the failovers and the restart are visible through the
     router's aggregation *)
  (match or_fail (Client.call ~timeout_s:10.0 c P.Stats) with
  | P.Stats_info w ->
    let top name = Option.value ~default:0 (Option.bind (Wire.member name w) Wire.to_int) in
    check Alcotest.bool "failovers counted" true (top "failovers" >= 1);
    let restarts =
      match Option.bind (Wire.member "shards" w) Wire.to_list with
      | None -> 0
      | Some items ->
        List.fold_left
          (fun acc it ->
            acc + Option.value ~default:0 (Option.bind (Wire.member "restarts" it) Wire.to_int))
          0 items
    in
    check Alcotest.bool "restart counted" true (restarts >= 1)
  | _ -> Alcotest.fail "expected fleet stats");
  (* two-phase reload, happy path: stage everywhere, commit, generation 2 *)
  let _ = export_fixture ~tweak:(fun m -> { m with M.threshold = 0.9 }) models_dir key0 in
  (match or_fail (Client.call ~timeout_s:20.0 c P.Reload_stage) with
  | P.Reload_info { phase = "stage"; ok = true; _ } -> ()
  | P.Reload_info { entries; _ } ->
    Alcotest.fail
      ("stage failed: "
      ^ String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) entries))
  | _ -> Alcotest.fail "expected stage info");
  (match or_fail (Client.call ~timeout_s:20.0 c P.Reload_commit) with
  | P.Reload_info { phase = "commit"; ok = true; _ } -> ()
  | P.Reload_info { entries; _ } ->
    Alcotest.fail
      ("commit failed: "
      ^ String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) entries))
  | _ -> Alcotest.fail "expected commit info");
  let served =
    expect_report (or_fail (Client.call ~timeout_s:20.0 c (P.Check_current { key = key0; config = "" })))
  in
  check Alcotest.int "reloaded generation serves" 2 served.P.generation;
  (* corrupt stage: the fleet refuses the round and keeps generation 2 *)
  let good = In_channel.with_open_bin model_path In_channel.input_all in
  Out_channel.with_open_bin model_path (fun oc ->
      Out_channel.output_string oc (String.sub good 0 (String.length good / 2)));
  (match or_fail (Client.call ~timeout_s:20.0 c P.Reload_stage) with
  | P.Reload_info { phase = "stage"; ok = false; _ } -> ()
  | _ -> Alcotest.fail "corrupt stage must be refused");
  (match or_fail (Client.call ~timeout_s:20.0 c P.Reload_commit) with
  | P.Reload_info { phase = "commit"; ok = false; _ } -> ()
  | _ -> Alcotest.fail "commit after failed stage must be refused");
  Out_channel.with_open_bin model_path (fun oc -> Out_channel.output_string oc good);
  let served =
    expect_report (or_fail (Client.call ~timeout_s:20.0 c (P.Check_current { key = key0; config = "" })))
  in
  check Alcotest.int "generation 2 survives the corrupt round" 2 served.P.generation

(* A worker that dies instantly, over and over: the supervisor must stop
   burning restarts and trip the shard's crash-loop breaker. *)
let test_crash_loop_trips () =
  skip_if_domains ();
  let dir = mk_tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let models_dir = Filename.concat dir "models" in
  Unix.mkdir models_dir 0o700;
  let _ = export_fixture models_dir "mini" in
  let run_dir = Filename.concat dir "run" in
  let topology, sup_pid =
    start_fleet
      ~spawn_worker:(fun _ -> Unix._exit 3)
      ~crashloop_limit:3 ~run_dir ~models_dir ~shards:1 ()
  in
  Fun.protect ~finally:(fun () -> stop_fleet sup_pid) @@ fun () ->
  await_state topology 0 ~want:"tripped" ~deadline_s:20.0;
  (match Option.bind (shard_field topology 0 "restarts") Wire.to_int with
  | Some n when n >= 3 -> ()
  | n ->
    Alcotest.fail
      (Printf.sprintf "expected >= 3 restarts before the trip, saw %s"
         (match n with Some n -> string_of_int n | None -> "<none>")));
  (* the router survives a fleet with no workers: it answers the degraded
     widening from its own registry instead of erroring *)
  let c = or_fail (Client.connect_retry ~deadline_s:20.0 (Topology.router_addr topology)) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let served =
    expect_report (or_fail (Client.call ~timeout_s:20.0 c (P.Check_current { key = "mini"; config = "" })))
  in
  check Alcotest.bool "degraded answer from the router fallback" true served.P.degraded

(* Workers that shed every check at admission, with no fault injected: the
   router re-dispatches the shed check to the sibling replica, and that is
   overload, not a failover. *)
let test_overload_is_not_failover () =
  skip_if_domains ();
  let dir = mk_tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let models_dir = Filename.concat dir "models" in
  Unix.mkdir models_dir 0o700;
  let _ = export_fixture models_dir "mini" in
  let run_dir = Filename.concat dir "run" in
  let topology, sup_pid = start_fleet ~max_queue:0 ~run_dir ~models_dir ~shards:2 () in
  Fun.protect ~finally:(fun () -> stop_fleet sup_pid) @@ fun () ->
  await_worker topology 0;
  await_worker topology 1;
  let c = or_fail (Client.connect_retry ~deadline_s:20.0 (Topology.router_addr topology)) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match or_fail (Client.call ~timeout_s:20.0 c (P.Check_current { key = "mini"; config = "" })) with
  | P.Error_resp { code = P.Overloaded; _ } -> ()
  | _ -> Alcotest.fail "expected the overloaded answer once both replicas shed");
  match or_fail (Client.call ~timeout_s:10.0 c P.Stats) with
  | P.Stats_info w ->
    let top name = Option.bind (Wire.member name w) Wire.to_int in
    check (Alcotest.option Alcotest.int) "no failover without a fault" (Some 0)
      (top "failovers");
    check Alcotest.bool "overload re-dispatch counted" true
      (Option.value ~default:0 (top "overload_redispatches") >= 1)
  | _ -> Alcotest.fail "expected fleet stats"

(* A shard that came up without a key the fleet serves (it started while
   the model file was unreadable) answers [unknown-model]: the router
   retries the next candidate instead of forwarding that answer, counts a
   retry and no failover, and still answers [unknown-model] for a key it
   does not know itself. *)
let test_unknown_model_is_retried () =
  skip_if_domains ();
  let dir = mk_tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let models_dir = Filename.concat dir "models" and empty_dir = Filename.concat dir "empty" in
  Unix.mkdir models_dir 0o700;
  Unix.mkdir empty_dir 0o700;
  let _ = export_fixture models_dir "mini" in
  let owner = Ring.owner (Ring.make ~shards:2 ()) "mini" in
  let run_dir = Filename.concat dir "run" in
  let topology, sup_pid =
    start_fleet
      ~worker_models_dir:(fun i -> if i = owner then empty_dir else models_dir)
      ~run_dir ~models_dir ~shards:2 ()
  in
  Fun.protect ~finally:(fun () -> stop_fleet sup_pid) @@ fun () ->
  await_worker topology (1 - owner);
  (* the owner is up, with no model, before the check reaches it *)
  let c = or_fail (Client.connect_retry ~deadline_s:20.0 (Topology.worker_addr topology owner)) in
  (match or_fail (Client.call ~timeout_s:5.0 c P.Health) with
  | P.Health_info { models = []; _ } -> ()
  | _ -> Alcotest.fail "expected the owner's health answer, with no model");
  Client.close c;
  let c = or_fail (Client.connect_retry ~deadline_s:20.0 (Topology.router_addr topology)) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let served =
    expect_report (or_fail (Client.call ~timeout_s:20.0 c (P.Check_current { key = "mini"; config = "" })))
  in
  check Alcotest.bool "served by the replica, not degraded" false served.P.degraded;
  (match or_fail (Client.call ~timeout_s:20.0 c (P.Check_current { key = "nope"; config = "" })) with
  | P.Error_resp { code = P.Unknown_model; _ } -> ()
  | _ -> Alcotest.fail "expected unknown-model for a key the router does not know");
  match or_fail (Client.call ~timeout_s:10.0 c P.Stats) with
  | P.Stats_info w ->
    let top name = Option.bind (Wire.member name w) Wire.to_int in
    check (Alcotest.option Alcotest.int) "no failover" (Some 0) (top "failovers");
    check Alcotest.bool "the retry is counted" true (Option.value ~default:0 (top "retries") >= 1)
  | _ -> Alcotest.fail "expected fleet stats"

let tests =
  [
    tc "hash ring is deterministic" test_ring_deterministic;
    tc "preference covers every shard once" test_ring_preference_complete;
    tc "ring spreads keys over shards" test_ring_distribution;
    tc "topology state file atomic round-trip" test_topology_state_file;
    tc "connect_retry gives up at the deadline" test_connect_retry_gives_up;
    tc "receive timeout against a silent server" test_receive_timeout;
    tc "partial write closes conn and counts" test_conn_write_failed_counter;
    tc "chaos plans are seeded and bounded" test_chaos_plan_deterministic;
    tc "fleet end-to-end: identity, kill -9 in flight, two-phase reload"
      test_fleet_end_to_end;
    tc "crash loop trips the shard breaker" test_crash_loop_trips;
    tc "worker overload is not a failover" test_overload_is_not_failover;
    tc "unknown-model for a served key retried" test_unknown_model_is_retried;
    tc "ring ownership golden table" test_ring_golden;
  ]
