module P = Vserve.Protocol
module Conn = Vserve.Conn
module Wire = Vserve.Wire
module Client = Vserve.Client
module Registry = Vserve.Registry
module Latency = Vserve.Latency
module Checker = Vchecker.Checker

type options = {
  topology : Topology.t;
  models_dir : string;
  replication : int;
  retries : bool;
  attempt_timeout_s : float;
  max_pending : int;
}

let default_options ~topology ~models_dir =
  {
    topology;
    models_dir;
    replication = 2;
    retries = true;
    attempt_timeout_s = 2.0;
    max_pending = 256;
  }

(* fixed failure-handling settings, each listed in router.mli *)
let max_attempts = 3
let down_budget_s = 1.0
let breaker_threshold = 3
let breaker_cooldown_s = 1.0
let reconnect_every_s = 0.25

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type shard = {
  s_id : int;
  s_addr : Vserve.Server.addr;
  mutable s_conn : Conn.t option;
  mutable s_consec : int;  (* consecutive charged failures *)
  mutable s_failures : int;  (* total charged failures *)
  mutable s_trips : int;
  mutable s_open_until : float;  (* breaker: 0. = closed *)
  mutable s_down_since : float option;
}

type pending = {
  pn_rid : int;
  pn_client : Conn.t;
  pn_cid : int option;
  pn_req : P.request;
  pn_key : string;
  mutable pn_shard : int;
  mutable pn_remaining : int list;  (* untried preference candidates *)
  mutable pn_attempts : int;
  mutable pn_deadline : float;
  pn_t0 : float;
}

type state = {
  opts : options;
  ring : Hash_ring.t;
  registry : Registry.t;  (* the router's own copy, for fallback answers *)
  shards : shard array;
  pendings : (int, pending) Hashtbl.t;
  latency : Latency.t;
  mutable next_rid : int;
  mutable routed : int;
  mutable retries : int;
  mutable failovers : int;
  mutable overload_redispatches : int;
  mutable timeouts : int;
  mutable stale : int;
  mutable fallback_degraded : int;
  mutable shed : int;
  mutable write_failed : int;
  mutable reloads_staged : int;
  mutable reloads_committed : int;
  mutable stage_ok : bool;  (* the last fleet-wide stage round succeeded *)
  mutable stopping : bool;
}

(* ------------------------------------------------------------------ *)
(* Shard connections and failure accounting                            *)
(* ------------------------------------------------------------------ *)

let close_shard_conn sh =
  (match sh.s_conn with Some c -> Conn.close c | None -> ());
  sh.s_conn <- None

let mark_down sh =
  if sh.s_down_since = None then sh.s_down_since <- Some (Unix.gettimeofday ());
  close_shard_conn sh

let mark_success sh =
  sh.s_consec <- 0;
  sh.s_down_since <- None;
  sh.s_open_until <- 0.

(* one charged failure: consecutive count feeds the per-shard breaker *)
let mark_failure sh =
  sh.s_consec <- sh.s_consec + 1;
  sh.s_failures <- sh.s_failures + 1;
  if sh.s_consec >= breaker_threshold && Unix.gettimeofday () >= sh.s_open_until then begin
    sh.s_open_until <- Unix.gettimeofday () +. breaker_cooldown_s;
    sh.s_trips <- sh.s_trips + 1
  end

let downtime sh =
  match sh.s_down_since with None -> 0. | Some t -> Unix.gettimeofday () -. t

let shard_conn sh =
  match sh.s_conn with
  | Some c when not (Conn.closed c) -> Some c
  | _ -> begin
    sh.s_conn <- None;
    match Conn.dial sh.s_addr with
    | Error _ -> None
    | Ok fd ->
      let c = Conn.make fd in
      sh.s_conn <- Some c;
      mark_success sh;
      Some c
  end

(* candidate shards for a key, best first: the preference-list prefix of
   length [replication], minus shards whose breaker is open (cooldown not
   elapsed) or that have been down past the budget *)
let candidates st key =
  let now = Unix.gettimeofday () in
  Hash_ring.preference st.ring key
  |> List.filteri (fun i _ -> i < st.opts.replication)
  |> List.filter (fun id ->
         let sh = st.shards.(id) in
         let breaker_open = now < sh.s_open_until in
         let past_budget = downtime sh > down_budget_s in
         (not breaker_open) && not past_budget)

(* ------------------------------------------------------------------ *)
(* Answering clients                                                   *)
(* ------------------------------------------------------------------ *)

let answer st p resp =
  Hashtbl.remove st.pendings p.pn_rid;
  Conn.send p.pn_client (P.response_to_wire ?id:p.pn_cid resp);
  Latency.observe st.latency ~us:((Unix.gettimeofday () -. p.pn_t0) *. 1e6)

(* every candidate failed: answer the conservative widening from the
   router's own registry rather than losing the request.  With [retries]
   off the resilience machinery is disabled wholesale — no re-dispatch
   {e and} no degraded stand-in — so failures surface as errors (the
   honest baseline the chaos bench A/Bs against). *)
let fallback st p =
  match (if st.opts.retries then Registry.find st.registry p.pn_key else None) with
  | Some (e : Registry.entry) ->
    st.fallback_degraded <- st.fallback_degraded + 1;
    let t0 = Unix.gettimeofday () in
    let findings = Checker.degraded_findings e.Registry.model in
    answer st p
      (P.Report
         {
           P.findings;
           checked_in_s = Unix.gettimeofday () -. t0;
           generation = e.Registry.generation;
           batched = false;
           coalesced = false;
           degraded = true;
         })
  | None ->
    answer st p
      (P.Error_resp
         {
           code = P.Check_failed;
           message = Printf.sprintf "no shard answered for model %s" p.pn_key;
         })

let rec dispatch st p =
  (* the candidate is down or died under the write: charge it and move on
     (moving past an unreachable candidate is a failover too) *)
  let unreachable sh =
    mark_failure sh;
    mark_down sh;
    if st.opts.retries then begin
      if p.pn_remaining <> [] then st.failovers <- st.failovers + 1;
      dispatch st p
    end
    else fallback st p
  in
  if p.pn_attempts >= max_attempts then fallback st p
  else begin
    match p.pn_remaining with
    | [] -> fallback st p
    | id :: rest -> begin
      p.pn_remaining <- rest;
      let sh = st.shards.(id) in
      match shard_conn sh with
      | None -> unreachable sh
      | Some c ->
        p.pn_shard <- id;
        p.pn_attempts <- p.pn_attempts + 1;
        p.pn_deadline <- Unix.gettimeofday () +. st.opts.attempt_timeout_s;
        Conn.send c (P.request_to_wire ~id:p.pn_rid p.pn_req);
        if Conn.closed c then unreachable sh
    end
  end

(* a dispatched request failed on [sh] (its worker died, or the attempt
   timed out): charge the shard and retry elsewhere *)
let redispatch st sh p =
  mark_failure sh;
  if st.opts.retries then begin
    st.failovers <- st.failovers + 1;
    st.retries <- st.retries + 1;
    dispatch st p
  end
  else fallback st p

(* a worker connection died: everything in flight on it fails over *)
let on_worker_dead st sh =
  mark_down sh;
  Hashtbl.fold (fun _ p acc -> if p.pn_shard = sh.s_id then p :: acc else acc) st.pendings []
  |> List.iter (redispatch st sh)

let check_timeouts st =
  let now = Unix.gettimeofday () in
  let expired =
    Hashtbl.fold (fun _ p acc -> if now >= p.pn_deadline then p :: acc else acc) st.pendings []
  in
  List.iter
    (fun p ->
      st.timeouts <- st.timeouts + 1;
      redispatch st st.shards.(p.pn_shard) p)
    expired

(* ------------------------------------------------------------------ *)
(* Worker responses                                                    *)
(* ------------------------------------------------------------------ *)

let handle_worker_line st sh line =
  match P.decode_response line with
  | Error _ -> st.stale <- st.stale + 1
  | Ok (rid, resp) -> begin
    match rid with
    | None -> st.stale <- st.stale + 1
    | Some rid -> begin
      match Hashtbl.find_opt st.pendings rid with
      | None ->
        (* already answered by failover or fallback: drop, never forward *)
        st.stale <- st.stale + 1
      | Some p -> begin
        match resp with
        | P.Error_resp { code = P.Overloaded; _ } when st.opts.retries && p.pn_remaining <> []
          ->
          (* the worker shed the request: retryable, but overload is not a
             shard fault — neither the breaker nor [failovers] is charged *)
          st.retries <- st.retries + 1;
          st.overload_redispatches <- st.overload_redispatches + 1;
          dispatch st p
        | P.Error_resp { code = P.Unknown_model; _ }
          when st.opts.retries && Option.is_some (Registry.find st.registry p.pn_key) ->
          (* the fleet serves the key but this worker has not loaded it (it
             restarted while the model file was unreadable): retry the next
             candidate, else the fallback; not a shard fault either *)
          st.retries <- st.retries + 1;
          dispatch st p
        | resp ->
          mark_success sh;
          answer st p resp
      end
    end
  end

let worker_fds st =
  Array.to_list st.shards
  |> List.filter_map (fun sh ->
         match sh.s_conn with
         | Some c when not (Conn.closed c) -> Some (Conn.fd c)
         | _ -> None)

(* read a readable worker socket; [false] when [fd] is no worker's *)
let read_worker st fd =
  let owner sh =
    match sh.s_conn with
    | Some c when (not (Conn.closed c)) && Conn.fd c == fd -> Some (sh, c)
    | _ -> None
  in
  match Array.find_map owner st.shards with
  | None -> false
  | Some (sh, c) ->
    let lines = Conn.read_lines c in
    if Conn.closed c then on_worker_dead st sh else List.iter (handle_worker_line st sh) lines;
    true

(* ------------------------------------------------------------------ *)
(* Draining in-flight requests                                         *)
(* ------------------------------------------------------------------ *)

let drain_deadline st =
  Unix.gettimeofday () +. (st.opts.attempt_timeout_s *. float_of_int (max_attempts + 1))

(* wait out the in-flight requests (worker sockets only — client lines queue
   in their kernel buffers), so a reload never mixes generations and a
   stats pull sees a quiesced pending table *)
let drain st =
  let deadline = drain_deadline st in
  while Hashtbl.length st.pendings > 0 && Unix.gettimeofday () < deadline do
    let readable =
      match Unix.select (worker_fds st) [] [] 0.05 with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter (fun fd -> ignore (read_worker st fd)) readable;
    check_timeouts st
  done

(* ------------------------------------------------------------------ *)
(* Service verbs                                                       *)
(* ------------------------------------------------------------------ *)

(* The fleet stats answer: the supervisor's published view of each shard
   (pid, restarts) plus the router's own charges, each live worker's stats
   answer as it sent it, the router counters, and one latency histogram
   folding the router's with every worker's. *)
let stats_to_wire st =
  let sup = Topology.read_shards st.opts.topology in
  let latency = Latency.create () in
  Latency.merge ~into:latency st.latency;
  let shard sh =
    let stats =
      if downtime sh > 0. then Wire.Null
      else
        match Client.call_once ~timeout_s:1.0 sh.s_addr P.Stats with
        | Ok (P.Stats_info v) ->
          Option.iter (Latency.merge ~into:latency)
            (Option.bind (Wire.member "latency" v) Latency.of_wire);
          v
        | _ -> Wire.Null
    in
    let s : Topology.shard_status =
      match sup.(sh.s_id) with
      | Some s -> s
      | None -> { id = sh.s_id; pid = 0; state = ""; restarts = 0; breaker_trips = 0; failures = 0 }
    in
    Topology.shard_to_wire ~stats
      {
        s with
        state =
          (match s.state with
          | ("tripped" | "restarting") as state -> state
          | _ -> if downtime sh > 0. then "down" else "up");
        breaker_trips = sh.s_trips + s.breaker_trips;
        failures = sh.s_failures + s.failures;
      }
  in
  let shards = Array.to_list (Array.map shard st.shards) in
  Wire.Obj
    [
      ("shards", Wire.List shards);
      ("routed", Wire.Int st.routed);
      ("retries", Wire.Int st.retries);
      ("failovers", Wire.Int st.failovers);
      ("overload_redispatches", Wire.Int st.overload_redispatches);
      ("timeouts", Wire.Int st.timeouts);
      ("stale_responses", Wire.Int st.stale);
      ("fallback_degraded", Wire.Int st.fallback_degraded);
      ("shed", Wire.Int st.shed);
      ("write_failed", Wire.Int st.write_failed);
      ("reloads_staged", Wire.Int st.reloads_staged);
      ("reloads_committed", Wire.Int st.reloads_committed);
      ("latency", Latency.to_wire latency);
    ]

let reload_stage st =
  drain st;
  let worker_results =
    Array.to_list st.shards
    |> List.map (fun sh ->
           let name = Printf.sprintf "shard-%d" sh.s_id in
           match Client.call_once ~timeout_s:5.0 sh.s_addr P.Reload_stage with
           | Ok (P.Reload_info { ok = true; _ }) -> (name, Ok ())
           | Ok (P.Reload_info { entries; _ }) ->
             let why =
               match List.find_opt (fun (_, v) -> v <> "") entries with
               | Some (k, v) -> Printf.sprintf "%s: %s" k v
               | None -> "stage failed"
             in
             (name, Error why)
           | Ok _ -> (name, Error "unexpected response to reload-stage")
           | Error e -> (name, Error e))
  in
  let own_results = Registry.stage st.registry in
  let own_ok = Registry.staged st.registry || own_results = [] in
  let ok = own_ok && List.for_all (fun (_, r) -> Result.is_ok r) worker_results in
  st.stage_ok <- ok;
  if ok then st.reloads_staged <- st.reloads_staged + 1;
  let entries =
    List.map
      (fun (name, r) -> (name, match r with Ok () -> "staged" | Error e -> e))
      worker_results
    @ List.map
        (fun (key, r) ->
          ("router:" ^ key, match r with Ok digest -> digest | Error e -> e))
        own_results
  in
  P.Reload_info { phase = "stage"; ok; entries }

let reload_commit st =
  if not st.stage_ok then
    P.Reload_info
      {
        phase = "commit";
        ok = false;
        entries = [ ("", "no successful fleet-wide stage to commit") ];
      }
  else begin
    st.stage_ok <- false;
    drain st;
    let commit_one sh =
      let name = Printf.sprintf "shard-%d" sh.s_id in
      let attempt () =
        match Client.call_once ~timeout_s:5.0 sh.s_addr P.Reload_commit with
        | Ok (P.Reload_info { ok = true; _ }) -> Ok ()
        | Ok (P.Reload_info { entries; _ }) ->
          Error
            (match entries with (_, e) :: _ -> e | [] -> "commit failed")
        | Ok _ -> Error "unexpected response to reload-commit"
        | Error e -> Error e
      in
      match attempt () with
      | Ok () -> (name, Ok ())
      | Error _ -> begin
        (* the worker may have restarted since the stage (losing its staged
           set, but loading the new files at startup anyway): re-stage and
           commit once so a recovered shard rejoins the new generation *)
        match Client.call_once ~timeout_s:5.0 sh.s_addr P.Reload_stage with
        | Ok (P.Reload_info { ok = true; _ }) -> (name, attempt ())
        | Ok _ | Error _ -> (name, attempt ())
      end
    in
    let worker_results = Array.to_list st.shards |> List.map commit_one in
    let own_ok =
      match Registry.commit st.registry with Ok _ -> true | Error _ -> false
    in
    let ok = own_ok && List.for_all (fun (_, r) -> Result.is_ok r) worker_results in
    if ok then st.reloads_committed <- st.reloads_committed + 1;
    let entries =
      List.map
        (fun (name, r) -> (name, match r with Ok () -> "committed" | Error e -> e))
        worker_results
    in
    P.Reload_info { phase = "commit"; ok; entries }
  end

(* ------------------------------------------------------------------ *)
(* Client requests                                                     *)
(* ------------------------------------------------------------------ *)

let handle_client_line st conn line =
  match P.decode_request line with
  | Error msg ->
    Conn.send conn
      (P.response_to_wire (P.Error_resp { code = P.Bad_request; message = msg }))
  | Ok (id, req) -> begin
    match req with
    | P.Health ->
      Conn.send conn
        (P.response_to_wire ?id (Vserve.Server.health st.registry ~stopping:st.stopping))
    | P.Stats -> Conn.send conn (P.response_to_wire ?id (P.Stats_info (stats_to_wire st)))
    | P.Reload_stage -> Conn.send conn (P.response_to_wire ?id (reload_stage st))
    | P.Reload_commit -> Conn.send conn (P.response_to_wire ?id (reload_commit st))
    | P.Shutdown ->
      st.stopping <- true;
      Conn.send conn (P.response_to_wire ?id P.Bye)
    | P.Check_current _ | P.Check_update _ | P.Check_upgrade _ ->
      if st.stopping then
        Conn.send conn
          (P.response_to_wire ?id
             (P.Error_resp { code = P.Shutting_down; message = "fleet is shutting down" }))
      else if Hashtbl.length st.pendings >= st.opts.max_pending then begin
        st.shed <- st.shed + 1;
        Conn.send conn
          (P.response_to_wire ?id
             (P.Error_resp
                { code = P.Overloaded; message = "router pending table full — request shed" }))
      end
      else begin
        let key = Option.value ~default:"" (P.key_of_request req) in
        let rid = st.next_rid in
        st.next_rid <- rid + 1;
        st.routed <- st.routed + 1;
        let p =
          {
            pn_rid = rid;
            pn_client = conn;
            pn_cid = id;
            pn_req = req;
            pn_key = key;
            pn_shard = -1;
            pn_remaining = candidates st key;
            pn_attempts = 0;
            pn_deadline = Float.max_float;
            pn_t0 = Unix.gettimeofday ();
          }
        in
        Hashtbl.replace st.pendings rid p;
        dispatch st p
      end
  end

(* ------------------------------------------------------------------ *)
(* The reactor                                                         *)
(* ------------------------------------------------------------------ *)

let run opts =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let addr = Topology.router_addr opts.topology in
  match Conn.listen addr with
  | exception Unix.Unix_error (err, _, _) ->
    Error (Printf.sprintf "cannot bind router: %s" (Unix.error_message err))
  | listen_fd ->
    (* the router's registry only backs the degraded fallback (conservative
       widening, no row decisions), so it never pays the compile tax *)
    let registry = Registry.create ~compile:false ~dir:opts.models_dir () in
    ignore (Registry.refresh registry);
    let shards =
      Array.init opts.topology.Topology.shards (fun i ->
          {
            s_id = i;
            s_addr = Topology.worker_addr opts.topology i;
            s_conn = None;
            s_consec = 0;
            s_failures = 0;
            s_trips = 0;
            s_open_until = 0.;
            s_down_since = None;
          })
    in
    let st =
      {
        opts;
        ring = Hash_ring.make ~shards:opts.topology.Topology.shards ();
        registry;
        shards;
        pendings = Hashtbl.create 64;
        latency = Latency.create ();
        next_rid = 1;
        routed = 0;
        retries = 0;
        failovers = 0;
        overload_redispatches = 0;
        timeouts = 0;
        stale = 0;
        fallback_degraded = 0;
        shed = 0;
        write_failed = 0;
        reloads_staged = 0;
        reloads_committed = 0;
        stage_ok = false;
        stopping = false;
      }
    in
    let on_write_failed () = st.write_failed <- st.write_failed + 1 in
    let clients = ref [] in
    let last_reconnect = ref 0. in
    let rec loop () =
      clients := List.filter (fun c -> not (Conn.closed c)) !clients;
      if st.stopping && Hashtbl.length st.pendings = 0 then ()
      else begin
        (* periodically probe downed shards for recovery (the supervisor
           restarts them; this is how the router notices) *)
        if Unix.gettimeofday () -. !last_reconnect >= reconnect_every_s then begin
          Array.iter
            (fun sh -> if sh.s_down_since <> None then ignore (shard_conn sh))
            shards;
          last_reconnect := Unix.gettimeofday ()
        end;
        let fds =
          (if st.stopping then [] else [ listen_fd ])
          @ List.map (fun c -> Conn.fd c) !clients
          @ worker_fds st
        in
        let timeout =
          if Hashtbl.length st.pendings = 0 then 0.2
          else
            Hashtbl.fold (fun _ p acc -> Float.min acc p.pn_deadline) st.pendings
              Float.max_float
            |> fun d -> Float.max 0.005 (Float.min 0.2 (d -. Unix.gettimeofday ()))
        in
        let readable =
          match Unix.select fds [] [] timeout with
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        List.iter
          (fun fd ->
            if fd == listen_fd then begin
              match Unix.accept listen_fd with
              | client_fd, _ -> clients := Conn.make ~on_write_failed client_fd :: !clients
              | exception Unix.Unix_error _ -> ()
            end
            else if not (read_worker st fd) then
              match List.find_opt (fun c -> Conn.fd c == fd) !clients with
              | None -> ()
              | Some conn -> List.iter (handle_client_line st conn) (Conn.read_lines conn))
          readable;
        check_timeouts st;
        loop ()
      end
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter Conn.close !clients;
        Array.iter close_shard_conn shards;
        Conn.unlisten addr listen_fd)
      (fun () ->
        loop ();
        Ok ())
