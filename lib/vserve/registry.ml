type entry = {
  key : string;
  path : string;
  generation : int;
  digest : string;
  model : Vmodel.Impact_model.t;
  compiled : Vmodel.Compiled_model.t option;
  previous : Vmodel.Impact_model.t option;
  mtime : float;
  size : int;
}

type event =
  | Loaded of { key : string; generation : int }
  | Rejected of { key : string; reason : string }
  | Removed of string

let event_to_string = function
  | Loaded { key; generation } -> Printf.sprintf "loaded %s (generation %d)" key generation
  | Rejected { key; reason } -> Printf.sprintf "rejected %s: %s" key reason
  | Removed key -> Printf.sprintf "removed %s" key

type t = {
  dir : string;
  compile : bool;
  entries : (string, entry) Hashtbl.t;
  mutable staged : entry list option;  (* [Some] after a successful stage *)
  mutable reloads : int;
  mutable load_failures : int;
  mutable compiles : int;
  mutable compile_wall_s : float;
}

let extension = ".vmodel"

let create ?(compile = true) ~dir () =
  {
    dir;
    compile;
    entries = Hashtbl.create 8;
    staged = None;
    reloads = 0;
    load_failures = 0;
    compiles = 0;
    compile_wall_s = 0.;
  }

let dir t = t.dir
let model_file ~dir ~key = Filename.concat dir (key ^ extension)

let key_of_file name =
  if Filename.check_suffix name extension then
    Some (Filename.chop_suffix name extension)
  else None

let ( let* ) = Result.bind

let compile_model t model =
  if not t.compile then None
  else begin
    let cm = Vmodel.Compiled_model.compile model in
    t.compiles <- t.compiles + 1;
    t.compile_wall_s <-
      t.compile_wall_s +. (Vmodel.Compiled_model.stats cm).Vmodel.Compiled_model.compile_s;
    Some cm
  end

(* every model file in the directory, in name order, with its stat *)
let scan t =
  let files = try Sys.readdir t.dir with Sys_error _ -> [||] in
  Array.sort String.compare files;
  List.filter_map
    (fun name ->
      Option.map
        (fun key ->
          let path = Filename.concat t.dir name in
          match Unix.stat path with
          | st -> (key, path, Ok st)
          | exception Unix.Unix_error (err, _, _) -> (key, path, Error (Unix.error_message err)))
        (key_of_file name))
    (Array.to_list files)

(* The one loader behind [refresh] and [stage].  The checkpoint envelope
   (magic, version, kind, length, digest) is verified, and its md5 both
   gates the load and becomes the entry's identity.  It is known before the
   payload is parsed, so bytes equal to the live generation's reuse its
   model and compiled artifact; other bytes are parsed and compiled.  Every
   failure counts in [load_failures]. *)
let load t (key, path, stat) =
  let loaded =
    let* st = stat in
    let* payload, digest = Violet.Pipeline.read_model_payload path in
    let* model, compiled =
      match Hashtbl.find_opt t.entries key with
      | Some e when String.equal e.digest digest -> Ok (e.model, e.compiled)
      | _ ->
        Result.map (fun m -> (m, compile_model t m)) (Vmodel.Impact_model.of_string payload)
    in
    (* [install] assigns the generation and the previous model *)
    Ok
      {
        key;
        path;
        generation = 0;
        digest;
        model;
        compiled;
        previous = None;
        mtime = st.Unix.st_mtime;
        size = st.Unix.st_size;
      }
  in
  if Result.is_error loaded then t.load_failures <- t.load_failures + 1;
  loaded

(* The one installer behind [refresh] and [commit]: a changed digest bumps
   the key's generation and keeps the replaced model as [previous]; an
   equal digest only refreshes the stat cache, and the live generation
   stands.  The entry is only ever replaced by a fully verified load. *)
let install t l =
  let old = Hashtbl.find_opt t.entries l.key in
  match old with
  | Some e when String.equal e.digest l.digest ->
    Hashtbl.replace t.entries l.key { e with mtime = l.mtime; size = l.size };
    None
  | _ ->
    let generation, previous =
      match old with Some e -> (e.generation + 1, Some e.model) | None -> (1, None)
    in
    Hashtbl.replace t.entries l.key { l with generation; previous };
    t.reloads <- t.reloads + 1;
    Some (Loaded { key = l.key; generation })

(* drop every live key whose file is not among [present] *)
let sweep t present =
  Hashtbl.fold (fun key _ acc -> if List.mem key present then acc else key :: acc) t.entries []
  |> List.rev_map (fun key ->
         Hashtbl.remove t.entries key;
         Removed key)

(* Per file: a bad file rejects only itself, and the previous generation
   keeps serving.  A file that cannot be stat'ed counts as gone. *)
let refresh ?(force = false) t =
  let files = List.filter (fun (_, _, stat) -> Result.is_ok stat) (scan t) in
  let changed (key, _, stat) =
    force
    ||
    match (Hashtbl.find_opt t.entries key, stat) with
    | Some e, Ok st -> not (Float.equal e.mtime st.Unix.st_mtime && e.size = st.Unix.st_size)
    | _ -> true
  in
  let events =
    List.filter_map
      (fun ((key, _, _) as file) ->
        match load t file with
        | Error reason -> Some (Rejected { key; reason })
        | Ok l -> install t l)
      (List.filter changed files)
  in
  events @ sweep t (List.map (fun (key, _, _) -> key) files)

(* ------------------------------------------------------------------ *)
(* Two-phase reload: [stage] verifies every file in the directory without
   touching the live table, all or nothing; [commit] installs the staged
   set (from a reader's point of view: one entry at a time, each fully
   built).  The vfleet router runs stage on every shard and commits only
   when all of them staged successfully, so no shard ever serves a
   generation another shard could not load.  Staging also pays the
   model-compile tax, so the commit flip stays cheap and the compiled
   artifact rides through the fleet's generation bump. *)

let stage t =
  let loads = List.map (fun ((key, _, _) as file) -> (key, load t file)) (scan t) in
  t.staged <-
    (if List.for_all (fun (_, r) -> Result.is_ok r) loads then
       Some (List.filter_map (fun (_, r) -> Result.to_option r) loads)
     else None);
  List.map (fun (key, r) -> (key, Result.map (fun l -> l.digest) r)) loads

let staged t = Option.is_some t.staged

let commit t =
  match t.staged with
  | None -> Error "nothing staged (run reload-stage first, and it must succeed)"
  | Some staged ->
    t.staged <- None;
    let events = List.filter_map (install t) staged in
    Ok (events @ sweep t (List.map (fun l -> l.key) staged))

let find t key = Hashtbl.find_opt t.entries key

let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
  |> List.sort (fun a b -> String.compare a.key b.key)

let reloads t = t.reloads
let load_failures t = t.load_failures
let compiles t = t.compiles
let compile_wall_s t = t.compile_wall_s
