module P = Protocol
module B = Vresilience.Budget
module Checker = Vchecker.Checker

type addr = Conn.addr

type options = {
  addr : addr;
  models_dir : string;
  resolve_registry : Vmodel.Impact_model.t -> Vruntime.Config_registry.t option;
  max_queue : int;
  request_deadline_s : float option;
  shed_pressure : float;
  refresh_every_s : float;
  manual_reload : bool;
  allow_shutdown : bool;
}

let default_options ~addr ~models_dir =
  {
    addr;
    models_dir;
    resolve_registry = (fun _ -> None);
    max_queue = 64;
    request_deadline_s = None;
    shed_pressure = 0.9;
    refresh_every_s = 0.5;
    manual_reload = false;
    allow_shutdown = true;
  }

(* ------------------------------------------------------------------ *)
(* Serving state                                                       *)
(* ------------------------------------------------------------------ *)

type pending = {
  p_conn : Conn.t;
  p_id : int option;
  p_req : P.request;
  p_key : string;
  p_armed : B.armed;
  p_t_enq : float;
}

type state = {
  opts : options;
  registry : Registry.t;
  base_budget : B.armed;  (** one spec for every request, re-armed at admission *)
  queue : pending Queue.t;
  by_verb : (string, int) Hashtbl.t;
  latency : Latency.t;  (** enqueue-to-response, check requests only *)
  upgrade_memo : (string * int, Checker.report) Hashtbl.t;
      (** mode-3a reports by (model key, generation) *)
  mutable requests : int;
  mutable shed_queue_full : int;
  mutable shed_deadline : int;
  mutable write_failed : int;
  mutable stopping : bool;
}

let bump_verb st verb =
  Hashtbl.replace st.by_verb verb
    (1 + Option.value ~default:0 (Hashtbl.find_opt st.by_verb verb))

let stats_to_wire st =
  let counts kvs = Wire.Obj (List.map (fun (k, n) -> (k, Wire.Int n)) kvs) in
  Wire.Obj
    [
      ("requests", Wire.Int st.requests);
      ( "by_verb",
        counts
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.by_verb []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)) );
      ("shed_queue_full", Wire.Int st.shed_queue_full);
      ("shed_deadline", Wire.Int st.shed_deadline);
      ("write_failed", Wire.Int st.write_failed);
      ("model_reloads", Wire.Int (Registry.reloads st.registry));
      ("model_load_failures", Wire.Int (Registry.load_failures st.registry));
      ("model_compiles", Wire.Int (Registry.compiles st.registry));
      ("compile_wall_s", Wire.Float (Registry.compile_wall_s st.registry));
      ( "models",
        counts
          (List.map
             (fun (e : Registry.entry) -> (e.Registry.key, e.Registry.generation))
             (Registry.entries st.registry)) );
      ("latency", Latency.to_wire st.latency);
    ]

(* ------------------------------------------------------------------ *)
(* Check execution (must not raise)                                   *)
(* ------------------------------------------------------------------ *)

let outcome_of_report generation (r : Checker.report) =
  P.Report
    {
      P.findings = r.Checker.findings;
      checked_in_s = r.Checker.checked_in_s;
      generation;
      batched = false;
      coalesced = false;
      degraded = false;
    }

let check_failed message = P.Error_resp { code = P.Check_failed; message }

(* Mode-3a (code upgrade, no workloads) is a pure function of the entry's
   current and previous models, and both are pinned by (key, generation)
   within this server's registry: a reload that changes either bumps the
   generation.  The daemon answers the same upgrade question for every
   client watching a rollout, so the row sweep runs once per generation and
   replays from the server's memo after.  Stale generations for a key are
   evicted on insert, so it holds at most one report per model. *)
let memoized_check_upgrade st ~key ~generation ~old_model ~new_model =
  match Hashtbl.find_opt st.upgrade_memo (key, generation) with
  | Some r -> r
  | None ->
    let r = Checker.check_upgrade ~old_model ~new_model () in
    let stale =
      Hashtbl.fold
        (fun (k, g) _ acc -> if String.equal k key && g <> generation then (k, g) :: acc else acc)
        st.upgrade_memo []
    in
    List.iter (Hashtbl.remove st.upgrade_memo) stale;
    Hashtbl.replace st.upgrade_memo (key, generation) r;
    r

let exec_check st p =
  let opts = st.opts in
  match Registry.find st.registry p.p_key with
  | None -> P.Error_resp { code = P.Unknown_model; message = "no model named " ^ p.p_key }
  | Some (e : Registry.entry) -> begin
    let model = e.Registry.model in
    let compiled = e.Registry.compiled in
    let generation = e.Registry.generation in
    if B.pressure p.p_armed >= opts.shed_pressure then begin
      (* queue wait ate the request's deadline budget: shed to the
         conservative widening — answer what is knowable without the full
         comparison instead of erroring *)
      st.shed_deadline <- st.shed_deadline + 1;
      let t0 = Unix.gettimeofday () in
      let findings = Checker.degraded_findings model in
      P.Report
        {
          P.findings;
          checked_in_s = Unix.gettimeofday () -. t0;
          generation;
          batched = false;
          coalesced = false;
          degraded = true;
        }
    end
    else
      try
        match p.p_req with
        | P.Check_current { config; _ } -> begin
          match opts.resolve_registry model with
          | None ->
            check_failed
              ("no configuration registry for system " ^ model.Vmodel.Impact_model.system)
          | Some reg -> begin
            let file = Vchecker.Config_file.parse config in
            match Checker.check_current ?compiled ~model ~registry:reg ~file () with
            | Ok report -> outcome_of_report generation report
            | Error msg -> check_failed msg
          end
        end
        | P.Check_update { old_config; new_config; _ } -> begin
          match opts.resolve_registry model with
          | None ->
            check_failed
              ("no configuration registry for system " ^ model.Vmodel.Impact_model.system)
          | Some reg -> begin
            let old_file = Vchecker.Config_file.parse old_config in
            let new_file = Vchecker.Config_file.parse new_config in
            match
              Checker.check_update ?compiled ~model ~registry:reg ~old_file ~new_file ()
            with
            | Ok report -> outcome_of_report generation report
            | Error msg -> check_failed msg
          end
        end
        | P.Check_upgrade { workloads = Some (old_workload, new_workload); _ } ->
          outcome_of_report generation
            (Checker.check_workload_change ?compiled ~model ~old_workload
               ~new_workload ())
        | P.Check_upgrade { workloads = None; _ } -> begin
          match e.Registry.previous with
          | Some old_model ->
            outcome_of_report generation
              (memoized_check_upgrade st ~key:p.p_key ~generation ~old_model
                 ~new_model:model)
          | None ->
            check_failed
              (Printf.sprintf "model %s has no previous generation to compare against"
                 p.p_key)
        end
        | P.Health | P.Stats | P.Reload_stage | P.Reload_commit | P.Shutdown ->
          (* service verbs never reach the queue *)
          check_failed "internal: service verb in check queue"
      with exn -> check_failed (Printexc.to_string exn)
  end

(* ------------------------------------------------------------------ *)
(* The reactor                                                         *)
(* ------------------------------------------------------------------ *)

let health registry ~stopping =
  let models =
    List.map
      (fun (e : Registry.entry) ->
        {
          P.mi_key = e.Registry.key;
          mi_generation = e.Registry.generation;
          mi_digest = e.Registry.digest;
        })
      (Registry.entries registry)
  in
  P.Health_info { status = (if stopping then "stopping" else "ok"); models }

let handle_line st conn line =
  let opts = st.opts in
  match P.decode_request line with
  | Error msg ->
    st.requests <- st.requests + 1;
    bump_verb st "invalid";
    Conn.send conn
      (P.response_to_wire (P.Error_resp { code = P.Bad_request; message = msg }))
  | Ok (id, req) -> begin
    let verb = P.verb_of_request req in
    match req with
    | P.Health ->
      st.requests <- st.requests + 1;
      bump_verb st verb;
      Conn.send conn (P.response_to_wire ?id (health st.registry ~stopping:st.stopping))
    | P.Stats ->
      st.requests <- st.requests + 1;
      bump_verb st verb;
      Conn.send conn (P.response_to_wire ?id (P.Stats_info (stats_to_wire st)))
    | P.Reload_stage ->
      st.requests <- st.requests + 1;
      bump_verb st verb;
      let results = Registry.stage st.registry in
      let ok = Registry.staged st.registry || results = [] in
      let entries =
        List.map
          (fun (key, r) ->
            match r with Ok digest -> (key, digest) | Error reason -> (key, reason))
          results
      in
      Conn.send conn
        (P.response_to_wire ?id (P.Reload_info { phase = "stage"; ok; entries }))
    | P.Reload_commit ->
      st.requests <- st.requests + 1;
      bump_verb st verb;
      let resp =
        match Registry.commit st.registry with
        | Error msg -> P.Reload_info { phase = "commit"; ok = false; entries = [ ("", msg) ] }
        | Ok events ->
          let entries =
            List.filter_map
              (fun ev ->
                match ev with
                | Registry.Loaded { key; generation } -> Some (key, string_of_int generation)
                | Registry.Removed key -> Some (key, "removed")
                | Registry.Rejected _ -> None)
              events
          in
          P.Reload_info { phase = "commit"; ok = true; entries }
      in
      Conn.send conn (P.response_to_wire ?id resp)
    | P.Shutdown ->
      st.requests <- st.requests + 1;
      bump_verb st verb;
      if opts.allow_shutdown then begin
        st.stopping <- true;
        Conn.send conn (P.response_to_wire ?id P.Bye)
      end
      else
        Conn.send conn
          (P.response_to_wire ?id
             (P.Error_resp { code = P.Bad_request; message = "shutdown is disabled" }))
    | P.Check_current _ | P.Check_update _ | P.Check_upgrade _ ->
      if st.stopping then begin
        st.requests <- st.requests + 1;
        bump_verb st verb;
        Conn.send conn
          (P.response_to_wire ?id
             (P.Error_resp { code = P.Shutting_down; message = "daemon is shutting down" }))
      end
      else if Queue.length st.queue >= opts.max_queue then begin
        (* admission control: shed rather than queue without bound *)
        st.requests <- st.requests + 1;
        bump_verb st verb;
        st.shed_queue_full <- st.shed_queue_full + 1;
        Conn.send conn
          (P.response_to_wire ?id
             (P.Error_resp
                { code = P.Overloaded; message = "admission queue full — request shed" }))
      end
      else begin
        let key = Option.value ~default:"" (P.key_of_request req) in
        Queue.add
          {
            p_conn = conn;
            p_id = id;
            p_req = req;
            p_key = key;
            p_armed = B.rearm st.base_budget;
            p_t_enq = Unix.gettimeofday ();
          }
          st.queue
      end
  end

(* One check per reactor turn: the oldest queued request runs and is
   answered before the next turn reads again. *)
let run_one st =
  match Queue.take_opt st.queue with
  | None -> ()
  | Some p ->
    let resp = exec_check st p in
    st.requests <- st.requests + 1;
    bump_verb st (P.verb_of_request p.p_req);
    Conn.send p.p_conn (P.response_to_wire ?id:p.p_id resp);
    Latency.observe st.latency ~us:((Unix.gettimeofday () -. p.p_t_enq) *. 1e6)

let run opts =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Conn.listen opts.addr with
  | exception Unix.Unix_error (err, _, _) ->
    Error (Printf.sprintf "cannot bind: %s" (Unix.error_message err))
  | listen_fd ->
    let registry = Registry.create ~dir:opts.models_dir () in
    ignore (Registry.refresh registry);
    let st =
      {
        opts;
        registry;
        base_budget =
          B.arm (B.with_deadline B.default opts.request_deadline_s);
        queue = Queue.create ();
        by_verb = Hashtbl.create 8;
        latency = Latency.create ();
        upgrade_memo = Hashtbl.create 16;
        requests = 0;
        shed_queue_full = 0;
        shed_deadline = 0;
        write_failed = 0;
        stopping = false;
      }
    in
    let on_write_failed () = st.write_failed <- st.write_failed + 1 in
    let conns = ref [] in
    let last_refresh = ref (Unix.gettimeofday ()) in
    let rec loop () =
      conns := List.filter (fun c -> not (Conn.closed c)) !conns;
      if st.stopping && Queue.is_empty st.queue then ()
      else begin
        let fds =
          (if st.stopping then [] else [ listen_fd ])
          @ List.map (fun c -> Conn.fd c) !conns
        in
        let timeout = if Queue.is_empty st.queue then 0.2 else 0. in
        let readable =
          match Unix.select fds [] [] timeout with
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        List.iter
          (fun fd ->
            if fd == listen_fd then begin
              match Unix.accept listen_fd with
              | client_fd, _ -> conns := Conn.make ~on_write_failed client_fd :: !conns
              | exception Unix.Unix_error _ -> ()
            end
            else
              match List.find_opt (fun c -> Conn.fd c == fd) !conns with
              | None -> ()
              | Some conn -> List.iter (handle_line st conn) (Conn.read_lines conn))
          readable;
        if
          (not opts.manual_reload)
          && Unix.gettimeofday () -. !last_refresh >= opts.refresh_every_s
        then begin
          ignore (Registry.refresh registry);
          last_refresh := Unix.gettimeofday ()
        end;
        run_one st;
        loop ()
      end
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter Conn.close !conns;
        Conn.unlisten opts.addr listen_fd)
      (fun () ->
        loop ();
        Ok ())
