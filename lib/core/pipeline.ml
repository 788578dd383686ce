module Reg = Vruntime.Config_registry
module Wl = Vruntime.Workload
module Ex = Vsymexec.Executor
module B = Vresilience.Budget
module D = Vresilience.Degradation

type target = {
  name : string;
  program : Vir.Ast.program;
  registry : Reg.t;
  workloads : Wl.template list;
}

(* ------------------------------------------------------------------ *)
(* Typed errors                                                        *)
(* ------------------------------------------------------------------ *)

type error =
  | Unknown_parameter of { system : string; param : string }
  | Not_hookable of { system : string; param : string }
  | Unused_parameter of { system : string; param : string }
  | Checkpoint_failed of { path : string; reason : Vresilience.Checkpoint.error }
  | Engine_failure of string

exception Pipeline_error of error

let error_to_string = function
  | Unknown_parameter { system; param } ->
    Printf.sprintf "%s: unknown parameter %s" system param
  | Not_hookable { system; param } ->
    Printf.sprintf "%s: no symbolic hook can be attached to %s" system param
  | Unused_parameter { system; param } ->
    Printf.sprintf "%s: parameter %s is never used by the code" system param
  | Checkpoint_failed { path; reason } ->
    Printf.sprintf "checkpoint %s: %s" path (Vresilience.Checkpoint.error_to_string reason)
  | Engine_failure msg -> Printf.sprintf "engine failure: %s" msg

(* ------------------------------------------------------------------ *)
(* Options                                                             *)
(* ------------------------------------------------------------------ *)

type checkpointing = { path : string; every_picks : int }

type options = {
  threshold : float;
  budget : B.t;
  env : Vruntime.Hw_env.t;
  workload_template : string option;
  sym_workload_params : string list;
  workload_overrides : (string * int) list;
  config_overrides : (string * int) list;
  include_related : bool;
  all_symbolic : bool;
  slice : bool;
  noise : Ex.noise option;
  relaxation_rules : bool;
  fault_injection : bool;
  checkpoint : checkpointing option;
  resume : bool;
  chaos : Vresilience.Chaos.t option;
  degradation : D.policy;
  jobs : int;
}

let default_options =
  {
    threshold = 1.0;
    budget = B.default;
    env = Vruntime.Hw_env.hdd_server;
    workload_template = None;
    sym_workload_params = [];
    workload_overrides = [];
    config_overrides = [];
    include_related = true;
    all_symbolic = false;
    slice = true;
    noise = None;
    relaxation_rules = true;
    fault_injection = false;
    checkpoint = None;
    resume = false;
    chaos = None;
    degradation = D.default_policy;
    jobs = 1;
  }

type analysis = {
  model : Vmodel.Impact_model.t;
  related : Vanalysis.Related_config.result;
  result : Ex.result;
  rows : Vmodel.Cost_row.t list;
  diff : Vmodel.Diff_analysis.t;
}

let related_params target param = Vanalysis.Related_config.analyze target.program param

let hookable target param =
  match Reg.find_opt target.registry param with
  | Some p -> p.Reg.hook = Reg.Hooked
  | None -> false

let analyzable_params target =
  let usage = Vanalysis.Usage.analyze target.program in
  let used = Vanalysis.Usage.all_params usage in
  List.filter_map
    (fun (p : Reg.param) ->
      if p.Reg.perf_related && p.Reg.hook = Reg.Hooked && List.mem p.Reg.name used then
        Some p.Reg.name
      else None)
    (Reg.params target.registry)

(* At most this many hookable related parameters are made symbolic
   alongside the target. *)
let max_related = 8

(* Stage 2 of [analyze]: the symbolic set, [param] first, from the static
   analysis's related set for [param]. *)
let symbolic_set opts target param (related : Vanalysis.Related_config.result) =
  if opts.all_symbolic then
    (* ablation: every hookable perf parameter the program reads *)
    List.sort_uniq String.compare (param :: analyzable_params target)
  else if opts.include_related then
    param
    :: List.filteri
         (fun i _ -> i < max_related)
         (List.filter (hookable target) related.Vanalysis.Related_config.related)
  else [ param ]

let companions ?(opts = default_options) target param =
  symbolic_set opts target param (related_params target param)
  |> List.filter (fun n -> n <> param)
  |> List.sort String.compare

(* One content key per configuration or workload parameter name: its
   registry entry (kind and domain, default, hook) and its definition in
   every workload template that declares it. *)
let registry_keys target =
  let defs =
    List.map
      (fun (p : Reg.param) -> p.Reg.name, `Config (p.Reg.kind, p.Reg.default, p.Reg.hook))
      (Reg.params target.registry)
    @ List.concat_map
        (fun (t : Wl.template) ->
          List.map
            (fun (wp : Wl.param) ->
              ( wp.Wl.name,
                `Workload (t.Wl.tname, wp.Wl.dom, List.assoc_opt wp.Wl.name t.Wl.defaults) ))
            t.Wl.params)
        target.workloads
  in
  List.sort_uniq String.compare (List.map fst defs)
  |> List.map (fun name ->
         let mine = List.filter_map (fun (n, d) -> if n = name then Some d else None) defs in
         name, Digest.to_hex (Digest.string (Marshal.to_string mine [ Marshal.No_sharing ])))

let pick_template target opts =
  match opts.workload_template with
  | Some name -> List.find_opt (fun t -> String.equal t.Wl.tname name) target.workloads
  | None -> ( match target.workloads with t :: _ -> Some t | [] -> None)

(* Checkpointing is best-effort mid-run: a failed save must not abort the
   exploration it is trying to protect.  Under chaos, a freshly written file
   may immediately be truncated — exactly the corruption --resume has to
   survive via typed errors. *)
let checkpoint_hook opts =
  match opts.checkpoint with
  | None -> None
  | Some c when c.every_picks <= 0 -> None
  | Some c ->
    Some
      (fun snap ->
        match Ex.save_snapshot ~path:c.path snap with
        | Error _ -> ()
        | Ok () -> begin
          match opts.chaos with
          | Some chaos -> ignore (Vresilience.Chaos.truncate_file chaos c.path)
          | None -> ()
        end)

let load_resume_snapshot opts =
  if not opts.resume then Ok None
  else
    match opts.checkpoint with
    | None -> Error (Engine_failure "resume requested but no checkpoint path configured")
    | Some c -> begin
      match Ex.load_snapshot ~path:c.path with
      | Ok snap -> Ok (Some snap)
      | Error reason -> Error (Checkpoint_failed { path = c.path; reason })
    end

let degradation_summary (result : Ex.result) =
  let dropped_paths =
    List.filter_map
      (fun (st : Vsymexec.Sym_state.t) ->
        match st.Vsymexec.Sym_state.status with
        | Vsymexec.Sym_state.Killed reason when Ex.is_budget_kill reason ->
          Some
            {
              Vmodel.Impact_model.dp_state_id = st.Vsymexec.Sym_state.id;
              dp_config_constraints =
                List.filter
                  (Vtrace.Profile.mentions_origin Vsmt.Expr.Config)
                  st.Vsymexec.Sym_state.pc;
              dp_latency_so_far_us = st.Vsymexec.Sym_state.clock;
            }
        | _ -> None)
      result.Ex.states
  in
  let rungs =
    List.map
      (fun (e : D.event) -> D.rung_to_string e.D.rung)
      result.Ex.sched.Vsched.Exploration_stats.degradation
  in
  let deadline_hit = result.Ex.stats.Ex.deadline_hit in
  if rungs = [] && (not deadline_hit) && dropped_paths = [] then None
  else Some { Vmodel.Impact_model.rungs; deadline_hit; dropped_paths }

let analyze ?(opts = default_options) target param =
  match Reg.find_opt target.registry param with
  | None -> Error (Unknown_parameter { system = target.name; param })
  | Some p when p.Reg.hook <> Reg.Hooked ->
    Error (Not_hookable { system = target.name; param })
  | Some _ -> begin
    let wall0 = opts.budget.B.now () in
    (* stage 1: static analysis *)
    let usage = Vanalysis.Usage.analyze target.program in
    if not (List.mem param (Vanalysis.Usage.all_params usage)) then
      Error (Unused_parameter { system = target.name; param })
    else begin
      let related = Vanalysis.Related_config.analyze ~usage target.program param in
      (* stage 2: choose the symbolic set *)
      let sym_param_names = symbolic_set opts target param related in
      let sym_configs = List.map (Ex.sym_config_var target.registry) sym_param_names in
      let template = pick_template target opts in
      let sym_workloads =
        match template with
        | None -> []
        | Some t ->
          let names =
            match opts.sym_workload_params with
            | [] -> List.map (fun (wp : Wl.param) -> wp.Wl.name) t.Wl.params
            | names -> names
          in
          List.map (Ex.sym_workload_var t) names
      in
      let base_values =
        List.fold_left
          (fun values (name, v) -> Reg.Values.set values name v)
          (Reg.Values.defaults target.registry)
          opts.config_overrides
      in
      let concrete_workload name =
        match List.assoc_opt name opts.workload_overrides with
        | Some v -> v
        | None -> begin
          match template with
          | Some t -> ( match List.assoc_opt name t.Wl.defaults with Some v -> v | None -> 0)
          | None -> 0
        end
      in
      (* stage 3: symbolic execution with tracing *)
      let exec_opts =
        {
          Ex.env = opts.env;
          sym_configs;
          concrete_config = (fun n -> Reg.Values.lookup base_values n 0);
          sym_workloads;
          concrete_workload;
          budget = opts.budget;
          max_loop_unroll = 48;
          state_switching = false;
          slice = opts.slice;
          noise = opts.noise;
          enable_tracer = true;
          relaxation_rules = opts.relaxation_rules;
          fault_injection = opts.fault_injection;
          chaos = opts.chaos;
          degradation = opts.degradation;
          checkpoint_every =
            (match opts.checkpoint with Some c -> c.every_picks | None -> 0);
          on_checkpoint = checkpoint_hook opts;
        }
      in
      match load_resume_snapshot opts with
      | Error e -> Error e
      | Ok resume -> begin
        (* stages 3–4 are the moving parts chaos attacks; any escape becomes
           a typed error so the continuous checker can report-and-continue *)
        match
          try
            let result = Ex.run ?resume exec_opts target.program in
            (* stage 4: trace analysis *)
            let profiles = Vtrace.Profile.of_result result in
            let rows = List.map Vmodel.Cost_row.of_profile profiles in
            let diff =
              Vmodel.Diff_analysis.analyze ~threshold:opts.threshold
                ~max_nodes:opts.budget.B.solver_max_nodes ~jobs:opts.jobs rows
            in
            Ok (result, rows, diff)
          with e -> Error (Engine_failure (Printexc.to_string e))
        with
        | Error e -> Error e
        | Ok (result, rows, diff) ->
          (* engine boot + target start-up inside the guest differs per
             system: MySQL starts "within one minute" (Section 5.1);
             Apache's prefork boot under the engine is the slowest in the
             paper's Figure 14 *)
          let startup_virtual_s =
            match target.name with
            | "mysql" -> 55.
            | "postgres" -> 35.
            | "apache" -> 340.
            | "squid" -> 150.
            | _ -> 45.
          in
          let virtual_analysis_s =
            startup_virtual_s
            +. List.fold_left
                 (fun acc (st : Vsymexec.Sym_state.t) ->
                   acc +. (st.Vsymexec.Sym_state.clock /. 1e6))
                 0. result.Ex.states
            +. (0.05 *. float_of_int result.Ex.stats.Ex.solver_calls)
          in
          (* the model records the symbolic companions actually used *)
          let used_related = List.filter (fun n -> n <> param) sym_param_names in
          let model =
            Vmodel.Impact_model.build
              ?degradation:(degradation_summary result)
              ~system:target.name ~target:param
              ~related:used_related ~rows ~analysis:diff
              ~explored_states:
                (result.Ex.stats.Ex.states_terminated + result.Ex.stats.Ex.states_killed)
              ~analysis_wall_s:(opts.budget.B.now () -. wall0)
              ~virtual_analysis_s ()
          in
          Ok { model; related; result; rows; diff }
      end
    end
  end

(* Registry-format model export: the impact model's sexp rendering inside
   the vresilience checkpoint envelope, so the serving layer's model
   registry gets the same version/kind/digest verification — and the same
   atomic-rename crash safety — checkpoints have. *)
let model_kind = "impact-model"
let model_version = 2

let export_model model path =
  Result.map_error Vresilience.Checkpoint.error_to_string
    (Vresilience.Checkpoint.write ~path ~kind:model_kind ~version:model_version
       (Vmodel.Impact_model.to_string model))

(* a version-1 envelope holds a format-1 payload *)
let read_model_payload path =
  match Vresilience.Checkpoint.read ~path ~kind:model_kind ~version:model_version with
  | Ok (payload, digest) -> Ok (payload, digest)
  | Error (Vresilience.Checkpoint.Version_mismatch { found = 1; _ }) ->
    Error Vmodel.Impact_model.format1_error
  | Error e -> Error (Vresilience.Checkpoint.error_to_string e)

let import_model path =
  Result.bind (read_model_payload path) (fun (payload, _) -> Vmodel.Impact_model.of_string payload)

let analyze_exn ?opts target param =
  match analyze ?opts target param with
  | Ok a -> a
  | Error e -> raise (Pipeline_error e)

let () =
  Printexc.register_printer (function
    | Pipeline_error e -> Some ("Pipeline_error: " ^ error_to_string e)
    | _ -> None)
