module P = Violet.Pipeline
module B = Vresilience.Budget
module Checkpoint = Vresilience.Checkpoint

type slice_origin = Fresh_slice | Carried

type slice = {
  sl_param : string;
  sl_related : string list;
  sl_digest : string;
  sl_visited : string list;
  sl_origin : slice_origin;
}

type provenance = Scratch | Spliced of { parent : string; reused : int; reexplored : int }

type t = {
  mf_system : string;
  mf_entry : string;
  mf_program_keys : (string * string) list;
  mf_registry_keys : (string * string) list;
  mf_options_fp : string;
  mf_provenance : provenance;
  mf_slices : slice list;
}

let manifest_kind = "vinc-manifest"
let manifest_version = 3

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

(* Every option that can change analysis output, rendered by hand —
   [P.options] holds closures (the budget clock, chaos streams), so
   [Marshal] is not available.  [jobs] is excluded (the diff ignores
   it); [slice] is excluded (documented byte-transparent); checkpointing
   fields are excluded (resume reproduces the uninterrupted model). *)
let options_fingerprint (o : P.options) =
  let pair (n, v) = Printf.sprintf "%s=%d" n v in
  let fields =
    [
      Printf.sprintf "threshold=%g" o.P.threshold;
      Printf.sprintf "deadline=%s"
        (match o.P.budget.B.deadline_s with None -> "-" | Some d -> Printf.sprintf "%g" d);
      Printf.sprintf "max_states=%d" o.P.budget.B.max_states;
      Printf.sprintf "fuel=%d" o.P.budget.B.fuel;
      Printf.sprintf "solver_max_nodes=%d" o.P.budget.B.solver_max_nodes;
      Printf.sprintf "env=%s" o.P.env.Vruntime.Hw_env.name;
      Printf.sprintf "template=%s"
        (match o.P.workload_template with None -> "-" | Some t -> t);
      Printf.sprintf "sym_workload=%s" (String.concat "," o.P.sym_workload_params);
      Printf.sprintf "wl_overrides=%s"
        (String.concat "," (List.map pair o.P.workload_overrides));
      Printf.sprintf "cfg_overrides=%s"
        (String.concat "," (List.map pair o.P.config_overrides));
      Printf.sprintf "include_related=%b" o.P.include_related;
      Printf.sprintf "all_symbolic=%b" o.P.all_symbolic;
      Printf.sprintf "noise=%s"
        (match o.P.noise with
        | None -> "-"
        | Some n ->
          Printf.sprintf "%g/%g/%g/%d" n.Vsymexec.Executor.jitter
            n.Vsymexec.Executor.signal_delay_prob n.Vsymexec.Executor.signal_delay_us
            n.Vsymexec.Executor.seed);
      Printf.sprintf "relaxation=%b" o.P.relaxation_rules;
      Printf.sprintf "fault_injection=%b" o.P.fault_injection;
      Printf.sprintf "chaos=%b" (o.P.chaos <> None);
    ]
  in
  Digest.to_hex (Digest.string (String.concat ";" fields))

let digest t =
  let keys = List.map (fun (n, k) -> n ^ ":" ^ k) (t.mf_program_keys @ t.mf_registry_keys) in
  let slices = List.map (fun s -> s.sl_param ^ ":" ^ s.sl_digest) t.mf_slices in
  Digest.to_hex
    (Digest.string
       (String.concat "|" ((t.mf_system :: t.mf_entry :: t.mf_options_fp :: keys) @ slices)))

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let sanitize s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c | _ -> '_')
    s

let manifest_file ~dir = Filename.concat dir "manifest.vinc"
let model_file ~dir ~param = Filename.concat dir (sanitize param ^ ".vmodel")

let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then ensure_dir parent;
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

(* The marshalled manifest rides the checkpoint envelope, so truncation and
   bit flips are caught by the digest before [Marshal.from_string] runs. *)
let save ~dir t =
  ensure_dir dir;
  Result.map_error Checkpoint.error_to_string
    (Checkpoint.write ~path:(manifest_file ~dir) ~kind:manifest_kind ~version:manifest_version
       (Marshal.to_string t []))

let load ~dir =
  match
    Checkpoint.read ~path:(manifest_file ~dir) ~kind:manifest_kind ~version:manifest_version
  with
  | Error e -> Error (Checkpoint.error_to_string e)
  | Ok (payload, _) -> (
    match (Marshal.from_string payload 0 : t) with
    | t -> Ok t
    | exception _ -> Error "manifest payload does not unmarshal")

(* "same digest" means "same analysis content": the identity the splice
   verifies on carried models and upgrade checking short-circuits on *)
let model_digest model = Digest.to_hex (Digest.string (Vmodel.Impact_model.content_string model))

let load_model ~dir ~param =
  let path = model_file ~dir ~param in
  match P.import_model path with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok model -> Ok (model, model_digest model)

(* ------------------------------------------------------------------ *)
(* From-scratch construction                                           *)
(* ------------------------------------------------------------------ *)

let slice_of_analysis ~origin param (a : P.analysis) =
  {
    sl_param = param;
    sl_related = List.sort String.compare a.P.model.Vmodel.Impact_model.related;
    sl_digest = model_digest a.P.model;
    sl_visited = a.P.result.Vsymexec.Executor.visited_functions;
    sl_origin = origin;
  }

let build ?(opts = P.default_options) ?params ~dir (target : P.target) =
  ensure_dir dir;
  let params = match params with Some ps -> ps | None -> P.analyzable_params target in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | param :: rest -> begin
      match P.analyze ~opts target param with
      | Error e -> Error (P.error_to_string e)
      | Ok a -> begin
        match P.export_model a.P.model (model_file ~dir ~param) with
        | Error e -> Error (Printf.sprintf "export %s: %s" param e)
        | Ok () -> go ((param, a) :: acc) rest
      end
    end
  in
  match go [] params with
  | Error e -> Error e
  | Ok analyses ->
    let slices =
      List.sort
        (fun a b -> String.compare a.sl_param b.sl_param)
        (List.map (fun (p, a) -> slice_of_analysis ~origin:Fresh_slice p a) analyses)
    in
    let t =
      {
        mf_system = target.P.name;
        mf_entry = target.P.program.Vir.Ast.entry;
        mf_program_keys = Irdiff.program_keys target.P.program;
        mf_registry_keys = P.registry_keys target;
        mf_options_fp = options_fingerprint opts;
        mf_provenance = Scratch;
        mf_slices = slices;
      }
    in
    (match save ~dir t with Error e -> Error e | Ok () -> Ok (t, analyses))
