module Client = Vserve.Client
module P = Vserve.Protocol

type options = {
  topology : Topology.t;
  models_dir : string;
  worker_opts : int -> Vserve.Server.options;
  router_opts : Router.options;
  probe_every_s : float;
  backoff_base_s : float;
  crashloop_limit : int;
  crashloop_cooldown_s : float;
  seed : int;
  spawn_worker : (int -> unit) option;
}

let default_options ~topology ~models_dir =
  let worker_opts i =
    let base =
      Vserve.Server.default_options ~addr:(Topology.worker_addr topology i) ~models_dir
    in
    (* workers change generation only on the router's two-phase command,
       and only the supervisor (by signal) stops them *)
    { base with Vserve.Server.manual_reload = true; allow_shutdown = false }
  in
  {
    topology;
    models_dir;
    worker_opts;
    router_opts = Router.default_options ~topology ~models_dir;
    probe_every_s = 0.5;
    backoff_base_s = 0.05;
    crashloop_limit = 5;
    crashloop_cooldown_s = 5.0;
    seed = 0x5eed;
    spawn_worker = None;
  }

(* fixed supervision settings, each listed in supervisor.mli *)
let probe_timeout_s = 1.0
let probe_failures_limit = 3
let backoff_max_s = 2.0
let crashloop_window_s = 10.0

(* ------------------------------------------------------------------ *)
(* Per-shard supervision state                                         *)
(* ------------------------------------------------------------------ *)

type shard_state = Up | Down | Restarting | Tripped

let state_to_string = function
  | Up -> "up"
  | Down -> "down"
  | Restarting -> "restarting"
  | Tripped -> "tripped"

type shard = {
  sh_id : int;
  mutable sh_pid : int;  (* 0 = not running *)
  mutable sh_state : shard_state;
  mutable sh_restarts : int;
  mutable sh_trips : int;
  mutable sh_failures : int;  (* probe failures, lifetime *)
  mutable sh_probe_failures : int;  (* consecutive *)
  mutable sh_crashes : float list;  (* exit times inside the window, newest first *)
  mutable sh_consec_crashes : int;
  mutable sh_restart_at : float;  (* when Restarting/Tripped may respawn *)
}

(* ------------------------------------------------------------------ *)

let fork_child body =
  match Unix.fork () with
  | 0 -> begin
    (* children die on the supervisor's SIGTERM; nothing of the parent's
       control flow may survive in the child *)
    Sys.set_signal Sys.sigterm Sys.Signal_default;
    (try body () with _ -> Unix._exit 2);
    Unix._exit 0
  end
  | pid -> pid

let spawn_worker opts i =
  fork_child (fun () ->
      match opts.spawn_worker with
      | Some body -> body i
      | None -> begin
        match Vserve.Server.run (opts.worker_opts i) with
        | Ok () -> Unix._exit 0
        | Error _ -> Unix._exit 1
      end)

let spawn_router opts =
  fork_child (fun () ->
      match Router.run opts.router_opts with
      | Ok () -> Unix._exit 0
      | Error _ -> Unix._exit 1)

let status sh =
  {
    Topology.id = sh.sh_id;
    pid = sh.sh_pid;
    state = state_to_string sh.sh_state;
    restarts = sh.sh_restarts;
    breaker_trips = sh.sh_trips;
    failures = sh.sh_failures;
  }

let run opts =
  if Vpar.Pool.spawned_domains () then
    Error "cannot start a fleet after spawning domains (fork is unsound)"
  else begin
    if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let stop = ref false in
    let old_term =
      Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true))
    in
    let rng = Random.State.make [| opts.seed; Unix.getpid () |] in
    let shards =
      Array.init opts.topology.Topology.shards (fun i ->
          {
            sh_id = i;
            sh_pid = 0;
            sh_state = Down;
            sh_restarts = 0;
            sh_trips = 0;
            sh_failures = 0;
            sh_probe_failures = 0;
            sh_crashes = [];
            sh_consec_crashes = 0;
            sh_restart_at = 0.;
          })
    in
    Array.iter
      (fun sh ->
        sh.sh_pid <- spawn_worker opts sh.sh_id;
        sh.sh_state <- Up)
      shards;
    let router_pid = ref (spawn_router opts) in
    let router_exited = ref false in
    (* rewrite the state file only when its document changed *)
    let published = ref Vserve.Wire.Null in
    let publish () =
      let doc =
        Topology.state_to_wire ~pid:(Unix.getpid ()) ~router_pid:!router_pid
          (Array.to_list (Array.map status shards))
      in
      if doc <> !published then begin
        published := doc;
        Topology.write_state opts.topology doc
      end
    in
    publish ();
    let shard_of_pid pid = Array.find_opt (fun sh -> sh.sh_pid = pid) shards in
    let on_worker_exit now sh =
      sh.sh_pid <- 0;
      sh.sh_probe_failures <- 0;
      sh.sh_crashes <-
        now :: List.filter (fun t -> now -. t <= crashloop_window_s) sh.sh_crashes;
      sh.sh_consec_crashes <- sh.sh_consec_crashes + 1;
      if List.length sh.sh_crashes > opts.crashloop_limit then begin
        (* crash loop: stop burning restarts, wait out the cooldown, then
           allow one half-open attempt *)
        sh.sh_state <- Tripped;
        sh.sh_trips <- sh.sh_trips + 1;
        sh.sh_crashes <- [];
        sh.sh_restart_at <- now +. opts.crashloop_cooldown_s
      end
      else begin
        sh.sh_state <- Restarting;
        let delay =
          Float.min backoff_max_s
            (opts.backoff_base_s *. (2. ** float_of_int (sh.sh_consec_crashes - 1)))
        in
        let jittered = delay *. (0.5 +. Random.State.float rng 1.0) in
        sh.sh_restart_at <- now +. jittered
      end
    in
    let last_probe = ref 0. in
    while not !stop do
      let now = Unix.gettimeofday () in
      (* reap exits *)
      let rec reap () =
        match Unix.waitpid [ Unix.WNOHANG ] (-1) with
        | 0, _ -> ()
        | pid, _ when pid = !router_pid ->
          router_exited := true;
          reap ()
        | pid, _ -> begin
          (match shard_of_pid pid with Some sh -> on_worker_exit now sh | None -> ());
          reap ()
        end
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      in
      reap ();
      if !router_exited then stop := true
      else begin
        (* scheduled restarts (backoff elapsed / breaker half-open) *)
        Array.iter
          (fun sh ->
            match sh.sh_state with
            | (Restarting | Tripped) when now >= sh.sh_restart_at ->
              sh.sh_pid <- spawn_worker opts sh.sh_id;
              sh.sh_restarts <- sh.sh_restarts + 1;
              sh.sh_state <- Up
            | _ -> ())
          shards;
        (* a restart is visible before the probes, which can block: a
           restarted worker may answer health before they finish *)
        publish ();
        (* health probes: a live but unresponsive worker gets SIGKILL and
           re-enters through the normal exit path *)
        if now -. !last_probe >= opts.probe_every_s then begin
          last_probe := now;
          Array.iter
            (fun sh ->
              if sh.sh_state = Up && sh.sh_pid <> 0 then begin
                let healthy =
                  match
                    Client.call_once ~timeout_s:probe_timeout_s
                      (Topology.worker_addr opts.topology sh.sh_id)
                      P.Health
                  with
                  | Ok (P.Health_info _) -> true
                  | Ok _ | Error _ -> false
                in
                if healthy then begin
                  sh.sh_probe_failures <- 0;
                  (* a stable run forgives crash history *)
                  if
                    sh.sh_crashes = []
                    || now -. List.hd sh.sh_crashes > crashloop_window_s
                  then sh.sh_consec_crashes <- 0
                end
                else begin
                  sh.sh_probe_failures <- sh.sh_probe_failures + 1;
                  sh.sh_failures <- sh.sh_failures + 1;
                  if sh.sh_probe_failures >= probe_failures_limit then begin
                    (try Unix.kill sh.sh_pid Sys.sigkill with Unix.Unix_error _ -> ());
                    sh.sh_probe_failures <- 0
                  end
                end
              end)
            shards
        end;
        publish ();
        Unix.sleepf 0.05
      end
    done;
    (* graceful stop: terminate the children, reap everything *)
    let kill pid signal = if pid > 0 then try Unix.kill pid signal with Unix.Unix_error _ -> () in
    if not !router_exited then kill !router_pid Sys.sigterm;
    Array.iter (fun sh -> kill sh.sh_pid Sys.sigterm) shards;
    let deadline = Unix.gettimeofday () +. 2.0 in
    let rec reap_all () =
      match Unix.waitpid [ Unix.WNOHANG ] (-1) with
      | 0, _ ->
        if Unix.gettimeofday () < deadline then begin
          Unix.sleepf 0.02;
          reap_all ()
        end
        else begin
          if not !router_exited then kill !router_pid Sys.sigkill;
          Array.iter (fun sh -> kill sh.sh_pid Sys.sigkill) shards;
          let rec hard () =
            match Unix.waitpid [] (-1) with
            | _ -> hard ()
            | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> hard ()
          in
          hard ()
        end
      | _ -> reap_all ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap_all ()
    in
    reap_all ();
    Array.iter (fun sh -> sh.sh_pid <- 0; sh.sh_state <- Down) shards;
    router_pid := 0;
    publish ();
    Sys.set_signal Sys.sigterm old_term;
    Ok ()
  end
