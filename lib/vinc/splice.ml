module P = Violet.Pipeline
module M = Vmodel.Impact_model

type report = {
  sp_diff : Irdiff.t;
  sp_dirty_functions : string list;
  sp_conservative : string option;
  sp_reused : string list;
  sp_reexplored : (string * string) list;
  sp_models : (string * M.t) list;
  sp_baseline : Baseline.t;
}

let reuse_fraction r =
  let reused = List.length r.sp_reused and redone = List.length r.sp_reexplored in
  if reused + redone = 0 then 0. else float_of_int reused /. float_of_int (reused + redone)

type decision =
  | Reuse of Baseline.slice * M.t  (* verified model, carried verbatim *)
  | Reexplore of string  (* reason *)

let classify ~baseline_dir (manifest : Baseline.t) target opts ~dirty_functions param =
  match List.find_opt (fun s -> s.Baseline.sl_param = param) manifest.Baseline.mf_slices with
  | None -> Reexplore "no baseline slice"
  | Some slice ->
    if slice.Baseline.sl_visited = [] then Reexplore "no recorded coverage"
    else if List.exists (fun f -> List.mem f dirty_functions) slice.Baseline.sl_visited then
      Reexplore "coverage touches changed code"
    else if P.companions ~opts target param <> slice.Baseline.sl_related then
      (* static analysis runs over the whole program, so a diff can change a
         slice's symbolic companions even when exploration never enters the
         changed code *)
      Reexplore "related-parameter set changed"
    else begin
      match Baseline.load_model ~dir:baseline_dir ~param with
      | Error _ -> Reexplore "baseline model unreadable"
      | Ok (model, digest) ->
        if String.equal digest slice.Baseline.sl_digest then Reuse (slice, model)
        else Reexplore "baseline model digest mismatch"
    end

let run ?(opts = P.default_options) ~baseline ~out (target : P.target) =
  match Baseline.load ~dir:baseline with
  | Error e -> Error (Printf.sprintf "baseline %s: %s" baseline e)
  | Ok manifest ->
    let diff = Irdiff.diff ~old_keys:manifest.Baseline.mf_program_keys target.P.program in
    let dirty_functions = Irdiff.dirty_functions diff in
    let registry_keys = P.registry_keys target in
    let conservative =
      if manifest.Baseline.mf_system <> target.P.name then Some "different system"
      else if manifest.Baseline.mf_entry <> target.P.program.Vir.Ast.entry then
        Some "entry function changed"
      else if manifest.Baseline.mf_options_fp <> Baseline.options_fingerprint opts then
        Some "analysis options changed"
      else if manifest.Baseline.mf_registry_keys <> registry_keys then
        Some "registry entry changed"
      else None
    in
    let params = P.analyzable_params target in
    let decisions =
      List.map
        (fun param ->
          match conservative with
          | Some reason -> param, Reexplore reason
          | None ->
            ( param,
              classify ~baseline_dir:baseline manifest target opts ~dirty_functions param ))
        params
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (param, Reuse (slice, model)) :: rest -> go ((param, `Reused (slice, model)) :: acc) rest
      | (param, Reexplore reason) :: rest -> begin
        match P.analyze ~opts target param with
        | Error e -> Error (Printf.sprintf "%s: %s" param (P.error_to_string e))
        | Ok a -> go ((param, `Fresh (reason, a)) :: acc) rest
      end
    in
    (match go [] decisions with
    | Error e -> Error e
    | Ok outcomes ->
      Baseline.ensure_dir out;
      (* write every model of the new baseline; carried models re-export to
         byte-identical files (the envelope is deterministic in the payload) *)
      let rec export = function
        | [] -> Ok ()
        | (param, model) :: rest -> begin
          match P.export_model model (Baseline.model_file ~dir:out ~param) with
          | Error e -> Error (Printf.sprintf "export %s: %s" param e)
          | Ok () -> export rest
        end
      in
      let models =
        List.map
          (fun (param, o) ->
            param, match o with `Reused (_, m) -> m | `Fresh (_, a) -> a.P.model)
          outcomes
      in
      (match export models with
      | Error e -> Error e
      | Ok () ->
        let slices =
          List.sort
            (fun a b -> String.compare a.Baseline.sl_param b.Baseline.sl_param)
            (List.map
               (fun (param, o) ->
                 match o with
                 | `Reused (slice, _) -> { slice with Baseline.sl_origin = Baseline.Carried }
                 | `Fresh (_, a) ->
                   Baseline.slice_of_analysis ~origin:Baseline.Fresh_slice param a)
               outcomes)
        in
        let reused =
          List.filter_map (fun (p, o) -> match o with `Reused _ -> Some p | _ -> None) outcomes
        in
        let reexplored =
          List.filter_map
            (fun (p, o) -> match o with `Fresh (reason, _) -> Some (p, reason) | _ -> None)
            outcomes
        in
        let new_manifest =
          {
            Baseline.mf_system = target.P.name;
            mf_entry = target.P.program.Vir.Ast.entry;
            mf_program_keys = Irdiff.program_keys target.P.program;
            mf_registry_keys = registry_keys;
            mf_options_fp = Baseline.options_fingerprint opts;
            mf_provenance =
              Baseline.Spliced
                {
                  parent = Baseline.digest manifest;
                  reused = List.length reused;
                  reexplored = List.length reexplored;
                };
            mf_slices = slices;
          }
        in
        (match Baseline.save ~dir:out new_manifest with
        | Error e -> Error e
        | Ok () ->
          Ok
            {
              sp_diff = diff;
              sp_dirty_functions = dirty_functions;
              sp_conservative = conservative;
              sp_reused = reused;
              sp_reexplored = reexplored;
              sp_models = List.sort (fun (a, _) (b, _) -> String.compare a b) models;
              sp_baseline = new_manifest;
            })))

(* ------------------------------------------------------------------ *)
(* Upgrade checking between baselines                                  *)
(* ------------------------------------------------------------------ *)

let check_upgrade ~old_dir ~new_dir =
  match Baseline.load ~dir:old_dir, Baseline.load ~dir:new_dir with
  | Error e, _ -> Error (Printf.sprintf "old baseline: %s" e)
  | _, Error e -> Error (Printf.sprintf "new baseline: %s" e)
  | Ok old_mf, Ok new_mf ->
    let old_slice p =
      List.find_opt (fun s -> s.Baseline.sl_param = p) old_mf.Baseline.mf_slices
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (ns : Baseline.slice) :: rest -> begin
        match old_slice ns.Baseline.sl_param with
        | None -> go acc rest (* parameter new in this version: nothing to compare *)
        | Some os when String.equal os.Baseline.sl_digest ns.Baseline.sl_digest ->
          (* identical models: no findings possible, skip the file loads *)
          go
            ((ns.Baseline.sl_param, { Vchecker.Checker.findings = []; checked_in_s = 0. })
            :: acc)
            rest
        | Some os -> begin
          match
            ( Baseline.load_model ~dir:old_dir ~param:os.Baseline.sl_param,
              Baseline.load_model ~dir:new_dir ~param:ns.Baseline.sl_param )
          with
          | Error e, _ | _, Error e -> Error e
          | Ok (old_model, od), Ok (new_model, nd) ->
            let r =
              Vchecker.Checker.check_upgrade ~old_digest:od ~new_digest:nd ~old_model
                ~new_model ()
            in
            go ((ns.Baseline.sl_param, r) :: acc) rest
        end
      end
    in
    go [] new_mf.Baseline.mf_slices
