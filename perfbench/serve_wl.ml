(* serve-mix: a fleet of one shard per core (the supervisor, router and
   worker code of `violet fleet start`) serving the c1/c7/c12/c16 models —
   mysql autocommit, postgres wal_sync_method, apache HostnameLookups and
   squid cache — to one generator thread with one connection per core.

   Its traffic exercises every check-path layer and no analysis layer:
   parse, row match, candidate order, witness, test case, wire encode and
   the router hop.  Responses range from a few hundred bytes (postgres) to
   tens of KB (squid), and mysql requests split between clean configs
   (tens of µs) and poor-state configs (milliseconds), so the wire, the
   router relay and the checker each dominate for some key.

   The untraced run is one closed loop with [window] requests in flight per
   connection for all of --seconds: ops_per_s is that loop's throughput.
   The traced run gives [open_share] of --seconds to an open loop at
   [offered_rate] first, whose per-key latencies it prints, and the rest
   to the closed loop.  Raw response lines are kept and verified after the
   timed window against solver-engine references computed before it,
   because decoding a large response costs about as much as the check.

   The traced run's per-layer metrics come from the four analyses that
   prepare the models and from the check path timed in process on the
   models the fleet serves (Check_layers); what only a fleet has — per-key
   latency, the worker round trip, the router hop, the fleet's own
   counters, the generator's lag — is printed in its summary and written
   to its trace file. *)

module P = Violet.Pipeline
module Proto = Vserve.Protocol
module Client = Vserve.Client
module Server = Vserve.Server
module W = Vserve.Wire
module Topology = Vfleet.Topology
module Supervisor = Vfleet.Supervisor
module Checker = Vchecker.Checker
module CF = Vchecker.Config_file
module M = Vmodel.Impact_model
module Reg = Vruntime.Config_registry
module S = Perfbench.Stats
module Span = Perfbench.Span
module Mix = Perfbench.Mix
module C = Common

(* The traffic, measured on a 2-core host.  The closed loop's throughput
   grows with the requests in flight per connection — about 500, 800,
   1,000, 1,100 and 1,150 answers per second at 1, 4, 8, 16 and 32 — so
   [window] = 16 loads the fleet to within a few percent of its capacity.
   [offered_rate] is under a fifth of that capacity, so the open loop
   measures service time and light queueing, not a saturated queue, and
   stays unsaturated if a change halves the capacity.  The share of update
   checks is Check_layers.update_share. *)
let offered_rate = 200.
let open_share = 0.8  (* of --seconds in the traced run; the closed loop gets the rest *)
let window = 16

(* model key (= system), analyzed parameter: paper Table 3 c1, c7, c12, c16 *)
let models =
  [ ("mysql", "autocommit"); ("postgres", "wal_sync_method"); ("apache", "HostnameLookups"); ("squid", "cache") ]

let keys = Array.of_list (List.map fst models)
let nkeys = Array.length keys

let or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* ------------------------------------------------------------------ *)
(* Untimed preparation                                                 *)
(* ------------------------------------------------------------------ *)

(* Analyze and export the four models in a child process, so neither the
   analysis heap nor its domains are inherited by the fleet forked later.
   With [traced] the analyses are traced: their layer values and the
   intern table's size at the end come back with the child's spans. *)
let export_models ~traced ~models_dir =
  C.in_child (fun () ->
      Span.spans := [];
      let layers =
        List.map
          (fun (sys, param) ->
            match Analyze_wl.analysis ~traced (Targets.Cases.target_of sys) param with
            | Error e, _, _ -> failwith (sys ^ " " ^ param ^ ": " ^ P.error_to_string e)
            | Ok a, _, l ->
              let r, _, _, el =
                Analyze_wl.export ~traced (Vserve.Registry.model_file ~dir:models_dir ~key:sys) a.P.model
              in
              or_fail "export" r;
              l @ el)
          models
      in
      (layers, Vsmt.Expr.interned_count (), !Span.spans))

type key_data = {
  key : string;
  model : M.t;
  registry : Reg.t;
  configs : string array;
  current_wire : string array;  (** solver-engine findings, wire-encoded *)
  update_wire : string array;  (** the same for config i -> config i+1 *)
}

let findings_string fs = W.to_string (Proto.findings_to_wire fs)

let reference ~models_dir key =
  let model = or_fail key (P.import_model (Vserve.Registry.model_file ~dir:models_dir ~key)) in
  let registry = (Targets.Cases.target_of model.M.system).P.registry in
  let configs = Check_layers.config_texts model registry in
  let n = Array.length configs in
  let wire r = findings_string (or_fail (key ^ " reference") r).Checker.findings in
  let current_wire =
    Array.map
      (fun text ->
        wire (Checker.check_current ~mode:Checker.Solver ~model ~registry ~file:(CF.parse text) ()))
      configs
  in
  let update_wire =
    Array.init n (fun i ->
        wire
          (Checker.check_update ~mode:Checker.Solver ~model ~registry ~old_file:(CF.parse configs.(i))
             ~new_file:(CF.parse configs.((i + 1) mod n)) ()))
  in
  { key; model; registry; configs; current_wire; update_wire }

let request (kd : key_data) = function
  | Mix.Current c -> Proto.Check_current { key = kd.key; config = kd.configs.(c) }
  | Mix.Update (a, b) ->
    Proto.Check_update { key = kd.key; old_config = kd.configs.(a); new_config = kd.configs.(b) }

let expected (kd : key_data) = function
  | Mix.Current c -> kd.current_wire.(c)
  | Mix.Update (a, _) -> kd.update_wire.(a)

(* ------------------------------------------------------------------ *)
(* The fleet                                                           *)
(* ------------------------------------------------------------------ *)

let fleet_pid = ref None

let stop_fleet () =
  match !fleet_pid with
  | None -> ()
  | Some pid ->
    fleet_pid := None;
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())

(* Fork the supervisor with the options `violet fleet start` uses. *)
let start_fleet (topology : Topology.t) ~models_dir =
  match Unix.fork () with
  | 0 ->
    let resolve_registry (m : M.t) =
      Option.map (fun t -> t.P.registry) (Targets.Cases.find_target m.M.system)
    in
    let base = Supervisor.default_options ~topology ~models_dir in
    let opts =
      {
        base with
        Supervisor.worker_opts =
          (fun i -> { (base.Supervisor.worker_opts i) with Server.resolve_registry });
      }
    in
    (match Supervisor.run opts with
    | Ok () -> ()
    | Error e -> prerr_endline ("serve-mix supervisor: " ^ e)
    | exception e -> prerr_endline ("serve-mix supervisor: " ^ Printexc.to_string e));
    Unix._exit 0
  | pid -> fleet_pid := Some pid

let await_health addr =
  match Client.connect_retry ~deadline_s:30.0 addr with
  | Error e -> failwith ("fleet did not come up: " ^ e)
  | Ok c ->
    let rec poll tries =
      match Client.call ~timeout_s:5.0 c Proto.Health with
      | Ok (Proto.Health_info { models; _ }) when List.length models >= nkeys -> ()
      | _ when tries > 0 ->
        Unix.sleepf 0.002;
        poll (tries - 1)
      | _ -> failwith "fleet never reported every model loaded"
    in
    Fun.protect ~finally:(fun () -> Client.close c) (fun () -> poll 10_000)

(* One set-up sample: fleet start until every shard and the router answer
   health with all four models loaded (and, by the registry's load path,
   compiled). *)
let setup_once topology ~models_dir =
  let t0 = C.now () in
  start_fleet topology ~models_dir;
  List.iter (fun i -> await_health (Topology.worker_addr topology i)) (List.init topology.Topology.shards Fun.id);
  await_health (Topology.router_addr topology);
  C.now () -. t0

let worker_pids (topology : Topology.t) =
  match Option.map W.of_string (Topology.read_state topology) with
  | Some (Ok v) ->
    Option.value ~default:[] (Option.bind (W.member "shards" v) W.to_list)
    |> List.filter_map (fun it -> Option.bind (W.member "pid" it) W.to_int)
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Load generation                                                     *)
(* ------------------------------------------------------------------ *)

let sock_path = function `Unix p -> p | `Tcp _ -> invalid_arg "serve-mix: unix sockets only"

let connect addr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX (sock_path addr));
  fd

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let id_of_line = Perfbench.Answer.id_of_line

(* Per-connection line reassembly. *)
type conn = { fd : Unix.file_descr; pending : Buffer.t }

let chunk = Bytes.create 65536

(* Wait at most [timeout] for any connection to be readable, read what is
   there and hand every complete line to [on_line] with its arrival time. *)
let pump conns ~timeout ~on_line =
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  match Unix.select fds [] [] (Float.max 0. timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | ready, _, _ ->
    let t = C.now () in
    Array.iteri
      (fun ci c ->
        if List.memq c.fd ready then begin
          let k = Unix.read c.fd chunk 0 (Bytes.length chunk) in
          if k = 0 then failwith "router closed a connection";
          let start = ref 0 in
          for i = 0 to k - 1 do
            if Bytes.get chunk i = '\n' then begin
              Buffer.add_subbytes c.pending chunk !start (i - !start);
              on_line ci t (Buffer.contents c.pending);
              Buffer.clear c.pending;
              start := i + 1
            end
          done;
          Buffer.add_subbytes c.pending chunk !start (k - !start)
        end)
      conns

type phase_out = {
  sent : float array;  (** send time per request id *)
  recv : float array;  (** receive time, nan if never answered *)
  lines : string array;  (** raw response line, "" if never answered *)
}

let drain_s = 10.

(* Phase 1: request i is due at start + i/rate and is sent then on
   connection i mod k, whatever is still outstanding. *)
let open_loop conns (lines : string array) ~rate =
  let n = Array.length lines in
  let k = Array.length conns in
  let out = { sent = Array.make n nan; recv = Array.make n nan; lines = Array.make n "" } in
  let got = ref 0 in
  let on_line _ t line =
    match id_of_line line with
    | Some id when id >= 0 && id < n && out.lines.(id) = "" ->
      out.recv.(id) <- t;
      out.lines.(id) <- line;
      incr got
    | _ -> ()
  in
  let start = C.now () +. 0.05 in
  let next = ref 0 in
  let stop = start +. (float_of_int n /. rate) +. drain_s in
  while !got < n && C.now () < stop do
    let now = C.now () in
    while !next < n && Mix.due ~start ~rate !next <= now do
      let i = !next in
      out.sent.(i) <- C.now ();
      write_all conns.(i mod k).fd lines.(i);
      incr next
    done;
    let timeout = if !next < n then Mix.due ~start ~rate !next -. C.now () else 0.05 in
    pump conns ~timeout ~on_line
  done;
  (out, start)

(* The closed loop: every connection keeps [window] requests in flight for
   [seconds], request i being [line i].  Returns the answers that arrived
   inside the window, counted per second, and whether the requests ran
   out before the window closed. *)
let closed_loop conns ~(line : int -> string) ~n ~seconds =
  let k = Array.length conns in
  let out = { sent = Array.make n nan; recv = Array.make n nan; lines = Array.make n "" } in
  let next = ref 0 in
  let outstanding = ref 0 in
  let send ci =
    if !next < n then begin
      let i = !next in
      incr next;
      let l = line i in
      out.sent.(i) <- C.now ();
      write_all conns.(ci).fd l;
      incr outstanding
    end
  in
  let t0 = C.now () in
  let t_end = t0 +. seconds in
  let per_second = Array.make (max 1 (int_of_float (Float.ceil seconds))) 0 in
  let on_line ci t line =
    match id_of_line line with
    | Some id when id >= 0 && id < n && out.lines.(id) = "" ->
      out.recv.(id) <- t;
      out.lines.(id) <- line;
      decr outstanding;
      if t <= t_end then begin
        let b = min (Array.length per_second - 1) (int_of_float (t -. t0)) in
        per_second.(b) <- per_second.(b) + 1;
        send ci
      end
    | _ -> ()
  in
  for ci = 0 to k - 1 do
    for _ = 1 to window do send ci done
  done;
  while C.now () < t_end do
    pump conns ~timeout:(t_end -. C.now ()) ~on_line
  done;
  let ran_out = !next >= n in
  let stop = C.now () +. drain_s in
  while !outstanding > 0 && C.now () < stop do
    pump conns ~timeout:0.05 ~on_line
  done;
  (out, per_second, ran_out)

(* Every distinct request once, one at a time, before timing: the
   workers' compiled models fill their lazy per-configuration memos on
   first use, a cost a long-running fleet pays once, not per request. *)
let warm_up conns (kds : key_data array) =
  let c = [| conns.(0) |] in
  Array.iter
    (fun kd ->
      let n = Array.length kd.configs in
      List.iter
        (fun kind ->
          write_all c.(0).fd (Proto.encode_request ~id:0 (request kd kind) ^ "\n");
          let got = ref false in
          while not !got do
            pump c ~timeout:5.0 ~on_line:(fun _ _ _ -> got := true)
          done)
        (List.init n (fun i -> Mix.Current i) @ List.init n (fun i -> Mix.Update (i, (i + 1) mod n))))
    kds

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)


(* Every answer is judged by decoding it and comparing its findings with
   the reference.  An answer whose body was already judged for the same
   request gets the same verdict without a second decode, which would
   otherwise cost as much as the timed window. *)
let verify (kds : key_data array) (reqs : Mix.req array) (out : phase_out) tally =
  let judged = Hashtbl.create 1024 in
  let judge (r : Mix.req) line =
    match Proto.decode_response line with
    | Ok (_, Proto.Report o) when o.Proto.degraded -> S.Degraded
    | Ok (_, Proto.Report o) ->
      if findings_string o.Proto.findings = expected kds.(r.Mix.key) r.Mix.kind then S.Ok_ else S.Wrong
    | Ok (_, Proto.Error_resp { code = Proto.Overloaded; _ }) -> S.Shed
    | Ok _ | Error _ -> S.Errored
  in
  Array.iteri
    (fun i (r : Mix.req) ->
      let line = out.lines.(i) in
      let outcome =
        if line = "" then S.Timed_out
        else
          match Perfbench.Answer.report_body line with
          | None -> judge r line
          | Some body -> (
            let k = (r.Mix.key, r.Mix.kind, body) in
            match Hashtbl.find_opt judged k with
            | Some o -> o
            | None ->
              let o = judge r line in
              Hashtbl.replace judged k o;
              o)
      in
      S.record tally outcome)
    reqs

(* ------------------------------------------------------------------ *)
(* Per-layer passes (traced run)                                       *)
(* ------------------------------------------------------------------ *)

let us s = s *. 1e6

(* One request in flight on a raw connection: the median round trip of
   the given request lines. *)
let rtt_us addr lines =
  let fd = connect addr in
  let c = [| { fd; pending = Buffer.create 4096 } |] in
  let samples =
    Array.map
      (fun line ->
        let t0 = C.now () in
        write_all fd line;
        let got = ref false in
        while not !got do
          pump c ~timeout:5.0 ~on_line:(fun _ _ _ -> got := true)
        done;
        C.now () -. t0)
      lines
  in
  Unix.close fd;
  us (S.median samples)

(* Per key, one request in flight: straight to the key's owning worker,
   then through the router; the difference is the router's hop. *)
let round_trips ~topology (kds : key_data array) =
  let ring = Vfleet.Hash_ring.make ~shards:topology.Topology.shards () in
  Array.to_list kds
  |> List.concat_map (fun kd ->
         let key = kd.key in
         let probe =
           Array.init 50 (fun i ->
               Proto.encode_request ~id:i
                 (Proto.Check_current { key; config = kd.configs.(i mod Array.length kd.configs) })
               ^ "\n")
         in
         let worker = rtt_us (Topology.worker_addr topology (Vfleet.Hash_ring.owner ring key)) probe in
         let router = rtt_us (Topology.router_addr topology) probe in
         [ C.m ("vserve.worker_rtt_us." ^ key) "us" worker; C.m ("vfleet.router_hop_us." ^ key) "us" (router -. worker) ])

(* Counters the fleet reports about itself, read at phase end. *)
let fleet_counters (topology : Topology.t) =
  let c = or_fail "stats" (Client.connect_retry ~deadline_s:10.0 (Topology.router_addr topology)) in
  let stats = Client.call ~timeout_s:10.0 c Proto.Stats in
  Client.close c;
  let int_of name v = Option.value ~default:0 (Option.bind (W.member name v) W.to_int) in
  match stats with
  | Ok (Proto.Stats_info w) ->
    let shards = Option.value ~default:[] (Option.bind (W.member "shards" w) W.to_list) in
    let worker name =
      List.fold_left
        (fun acc it ->
          match W.member "stats" it with
          | Some s -> acc + int_of name s
          | None -> acc)
        0 shards
    in
    let requests = worker "requests" in
    [
      C.m "vserve.coalesced_ratio" "ratio"
        (if requests = 0 then 0. else float_of_int (worker "coalesced") /. float_of_int requests);
      C.m "vserve.shed" "count"
        (float_of_int (worker "shed_queue_full" + worker "shed_deadline" + int_of "shed" w));
      C.m "vfleet.failovers" "count" (float_of_int (int_of "failovers" w));
    ]
  | _ -> failwith "fleet stats unavailable"

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let run (args : C.args) =
  if args.C.probe then exit 0;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit stop_fleet;
  let traced = args.C.trace in
  (* wall time of each untimed step, printed as a note *)
  let steps = ref [] in
  let step name f =
    let t0 = C.now () in
    let r = f () in
    steps := (name, C.now () -. t0) :: !steps;
    r
  in
  let dir = C.run_dir args "serve" in
  let models_dir = Filename.concat dir "models" in
  C.mkdir_p models_dir;
  Span.reset ~on:traced;
  let prep_layers, interned, prep_spans = step "export" (fun () -> export_models ~traced ~models_dir) in
  Span.absorb prep_spans;
  (* Unix socket paths are short: the fleet lives in "fleet" under the
     run directory, named relative to it *)
  Sys.chdir dir;
  let shards = C.shards () in
  let topology = Topology.make ~run_dir:"fleet" ~shards in
  (* set-up samples: three before the timed phases, two after them *)
  let setup_s = Array.make 5 nan in
  step "fleet starts" (fun () ->
      for i = 0 to 2 do
        setup_s.(i) <- setup_once topology ~models_dir;
        if i < 2 then stop_fleet ()
      done);
  let kds = step "references" (fun () -> Array.map (reference ~models_dir) keys) in
  let open_s = if traced then args.C.seconds *. open_share else 0. in
  let closed_s = args.C.seconds -. open_s in
  let n1 = int_of_float (Float.round (offered_rate *. open_s)) in
  (* the closed loop draws from the sequence after the open loop's
     requests; 10,000 per second is beyond what it completes here *)
  let pool = int_of_float (closed_s *. 10_000.) in
  let all =
    Mix.sequence ~seed:args.C.seed ~n:(n1 + pool)
      ~configs:(Array.map (fun kd -> Array.length kd.configs) kds)
      ~update_share:Check_layers.update_share
  in
  let reqs1 = Array.sub all 0 n1 and reqs2 = Array.sub all n1 pool in
  let encode id (r : Mix.req) = Proto.encode_request ~id (request kds.(r.Mix.key) r.Mix.kind) ^ "\n" in
  let conns () =
    Array.init shards (fun _ -> { fd = connect (Topology.router_addr topology); pending = Buffer.create 65536 })
  in
  let cs = conns () in
  step "warm-up" (fun () -> warm_up cs kds);
  (* the open loop sends pre-encoded lines, so its own cost per request is
     a write *)
  let out1, start1 = open_loop cs (Array.mapi encode reqs1) ~rate:offered_rate in
  Array.iter (fun c -> Unix.close c.fd) cs;
  (* closed-loop ids restart at 0 on fresh connections *)
  let cs = conns () in
  let out2, per_second, ran_out = closed_loop cs ~line:(fun i -> encode i reqs2.(i)) ~n:pool ~seconds:closed_s in
  Array.iter (fun c -> Unix.close c.fd) cs;
  let counters = if traced then fleet_counters topology else [] in
  let rss = List.filter_map S.vm_hwm_mb (worker_pids topology) in
  let trips = if traced then round_trips ~topology kds else [] in
  step "fleet restarts" (fun () ->
      stop_fleet ();
      for i = 3 to 4 do
        setup_s.(i) <- setup_once topology ~models_dir;
        stop_fleet ()
      done);
  (* verification and statistics, after the timed window *)
  let tally = S.tally () in
  step "verify" (fun () ->
      verify kds reqs1 out1 tally;
      let sent2 = Array.fold_left (fun n t -> if Float.is_nan t then n else n + 1) 0 out2.sent in
      verify kds (Array.sub reqs2 0 sent2) { out2 with lines = Array.sub out2.lines 0 sent2 } tally);
  let last_recv = Array.fold_left (fun m t -> if Float.is_nan t then m else Float.max m t) 0. out1.recv in
  let lat = Array.init n1 (fun i ->
      let recv = if Float.is_nan out1.recv.(i) then last_recv else out1.recv.(i) in
      S.latency_from_due ~due:(Mix.due ~start:start1 ~rate:offered_rate i) ~recv)
  in
  let lag = Array.init n1 (fun i -> out1.sent.(i) -. Mix.due ~start:start1 ~rate:offered_rate i) in
  let problems = ref [] in
  if ran_out then problems := "the closed loop ran out of requests" :: !problems;
  (* Open-loop latency per model key, not pooled, printed by the traced
     run: a request crosses the generator, the router and a worker, each
     on a vCPU whose speed a shared 2-core host varies 1-2x, and their
     run-to-run spread is wider than any bound a regression check could
     use.  mysql's median also sits where its clean configurations (tens
     of µs) give way to its poor-state ones (milliseconds). *)
  let per_key q =
    Array.to_list
      (Array.mapi
         (fun ki key ->
           let xs = Array.of_list (List.filteri (fun i _ -> reqs1.(i).Mix.key = ki) (Array.to_list lat)) in
           if S.beyond ~n:(Array.length xs) q < 10 then
             problems := Printf.sprintf "%s: %d samples leave fewer than ten beyond p%g" key (Array.length xs) (100. *. q) :: !problems;
           C.m (Printf.sprintf "check_p%g_ms.%s" (100. *. q) key) "ms" (1e3 *. S.percentile xs q))
         keys)
  in
  let latency = if traced then per_key 0.5 @ per_key 0.99 else [] in
  if not (C.setup_ok setup_s) then problems := "set-up failed" :: !problems;
  let rates = Array.map float_of_int per_second in
  let end_to_end =
    [
      C.m "setup_s" "s" (S.median setup_s);
      C.m "peak_rss_mb" "MB" (List.fold_left Float.max neg_infinity rss);
    ]
  in
  (* Throughput, the median second: the host's speed shifts over seconds,
     both ways, and the typical second is steadier than the mean or the
     fastest ones.  It is a per-layer metric, not an end-to-end one: over
     ten seeds its spread exceeded the largest bound a regression check
     may use (see CHANGES.md).  An operation here is one report. *)
  let throughput = [ C.m "ops_per_s" "1/s" (S.median rates) ] in
  C.note "serve-mix: %d shards, open loop %d requests at %.0f/s, closed loop %d answers in %.1f s; %d of %d attempted failed"
    shards n1 offered_rate (Array.fold_left ( + ) 0 per_second) closed_s (S.failed tally) tally.S.attempted;
  C.note "untimed steps: %s"
    (String.concat ", " (List.rev_map (fun (n, d) -> Printf.sprintf "%s %.2f s" n d) !steps));
  C.note "closed loop answers per second: %s"
    (String.concat " " (Array.to_list (Array.map string_of_int per_second)));
  if traced then
    C.note "generator lag p50 %.3f ms, p99 %.3f ms" (1e3 *. S.percentile lag 0.5) (1e3 *. S.percentile lag 0.99);
  C.note "failures: wrong %d, errored %d, shed %d, degraded %d, timed out %d" tally.S.wrong
    tally.S.errored tally.S.shed tally.S.degraded tally.S.timed_out;
  let layers =
    if not traced then []
    else begin
      C.print_summary
        (latency @ trips @ counters @ [ C.m "bench.gen_lag_p99_ms" "ms" (1e3 *. S.percentile lag 0.99) ]);
      let checks =
        Check_layers.measure ~seed:args.C.seed ~tally
          (Array.to_list
             (Array.map
                (fun kd ->
                  {
                    Check_layers.key = kd.key;
                    file = Vserve.Registry.model_file ~dir:models_dir ~key:kd.key;
                    registry = kd.registry;
                  })
                kds))
      in
      Analyze_wl.analysis_metrics ~interned:(float_of_int interned) prep_layers
      @ checks
      @ [ C.m "fail_ratio" "ratio" (S.fail_ratio tally) ]
    end
  in
  List.iter (fun p -> C.note "FAIL %s" p) !problems;
  let correct = !problems = [] && S.failed tally = 0 in
  if traced then begin
    Array.iteri
      (fun i l ->
        let due = Mix.due ~start:start1 ~rate:offered_rate i in
        let id = Span.add ~req:i "bench.request" ~t0:due ~t1:(due +. l) in
        ignore (Span.add ~parent:id ~req:i "bench.gen_lag" ~t0:due ~t1:out1.sent.(i)))
      lat;
    Span.write
      ~path:(Filename.concat args.C.out_dir (Printf.sprintf "trace-serve-mix-%d-%d.json" args.C.seed (Unix.getpid ())))
      ~stamp:(C.stamp args ~offered_rate) !Span.spans
  end;
  C.finish ~untraced_layers:throughput ~trace:traced ~correct ~tally ~end_to_end ~layers ();
  Sys.chdir "..";
  C.rm_rf dir
