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

(* a fully verified load held back from the live table until [commit] *)
type staged = {
  st_key : string;
  st_path : string;
  st_digest : string;
  st_model : Vmodel.Impact_model.t;
  st_compiled : Vmodel.Compiled_model.t option;
  st_mtime : float;
  st_size : int;
}

type t = {
  dir : string;
  compile : bool;
  entries : (string, entry) Hashtbl.t;
  mutable staged : staged list option;  (* [Some] after a successful stage *)
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

(* Read the payload through the checkpoint envelope (verifying magic,
   version, kind, length and digest) — the md5 both gates the load and
   becomes the entry's identity, and is known *before* the payload is
   parsed, so an unchanged digest skips the parse and recompile
   entirely. *)
let read_payload path =
  Result.map
    (fun payload -> (payload, Digest.to_hex (Digest.string payload)))
    (Violet.Pipeline.read_model_payload path)

let compile_model t model =
  if not t.compile then None
  else begin
    let cm = Vmodel.Compiled_model.compile model in
    t.compiles <- t.compiles + 1;
    t.compile_wall_s <-
      t.compile_wall_s +. (Vmodel.Compiled_model.stats cm).Vmodel.Compiled_model.compile_s;
    Some cm
  end

let refresh ?(force = false) t =
  let events = ref [] in
  let seen = Hashtbl.create 8 in
  let files = try Sys.readdir t.dir with Sys_error _ -> [||] in
  Array.sort String.compare files;
  Array.iter
    (fun name ->
      match key_of_file name with
      | None -> ()
      | Some key -> begin
        let path = Filename.concat t.dir name in
        match Unix.stat path with
        | exception Unix.Unix_error _ -> ()
        | st ->
          Hashtbl.replace seen key ();
          let old = Hashtbl.find_opt t.entries key in
          let unchanged =
            (not force)
            && match old with
               | Some e ->
                 Float.equal e.mtime st.Unix.st_mtime && e.size = st.Unix.st_size
               | None -> false
          in
          if not unchanged then begin
            match read_payload path with
            | Error reason ->
              (* keep serving the previous generation: the entry is only
                 ever replaced by a fully verified load *)
              t.load_failures <- t.load_failures + 1;
              events := Rejected { key; reason } :: !events
            | Ok (payload, digest) ->
              let same_bytes =
                match old with Some e -> String.equal e.digest digest | None -> false
              in
              if same_bytes then
                (* touched but byte-identical: refresh the stat cache only —
                   no re-parse, no recompile, the live generation stands *)
                Hashtbl.replace t.entries key
                  (Option.get old |> fun e ->
                   { e with mtime = st.Unix.st_mtime; size = st.Unix.st_size })
              else begin
                match Vmodel.Impact_model.of_string payload with
                | Error reason ->
                  t.load_failures <- t.load_failures + 1;
                  events := Rejected { key; reason } :: !events
                | Ok model ->
                  let generation, previous =
                    match old with
                    | Some e -> (e.generation + 1, Some e.model)
                    | None -> (1, None)
                  in
                  let entry =
                    {
                      key;
                      path;
                      generation;
                      digest;
                      model;
                      compiled = compile_model t model;
                      previous;
                      mtime = st.Unix.st_mtime;
                      size = st.Unix.st_size;
                    }
                  in
                  Hashtbl.replace t.entries key entry;
                  t.reloads <- t.reloads + 1;
                  events := Loaded { key; generation } :: !events
              end
          end
      end)
    files;
  Hashtbl.iter
    (fun key _ ->
      if not (Hashtbl.mem seen key) then events := Removed key :: !events)
    (Hashtbl.copy t.entries);
  List.iter
    (fun ev -> match ev with Removed key -> Hashtbl.remove t.entries key | _ -> ())
    !events;
  List.rev !events

(* ------------------------------------------------------------------ *)
(* Two-phase reload: [stage] verifies every file in the directory without
   touching the live table; [commit] flips the staged set in atomically
   (from a reader's point of view: one entry at a time, each fully built).
   The vfleet router runs stage on every shard and commits only when all of
   them staged successfully, so no shard ever serves a generation another
   shard could not load.  Staging also pays the model-compile tax, so the
   commit flip stays cheap and the compiled artifact rides through the
   fleet's generation bump. *)

let stage t =
  let files = try Sys.readdir t.dir with Sys_error _ -> [||] in
  Array.sort String.compare files;
  let results = ref [] in
  let staged = ref [] in
  let all_ok = ref true in
  Array.iter
    (fun name ->
      match key_of_file name with
      | None -> ()
      | Some key -> begin
        let path = Filename.concat t.dir name in
        match Unix.stat path with
        | exception Unix.Unix_error (err, _, _) ->
          all_ok := false;
          t.load_failures <- t.load_failures + 1;
          results := (key, Error (Unix.error_message err)) :: !results
        | st -> begin
          match read_payload path with
          | Error reason ->
            all_ok := false;
            t.load_failures <- t.load_failures + 1;
            results := (key, Error reason) :: !results
          | Ok (payload, digest) -> begin
            let live =
              match Hashtbl.find_opt t.entries key with
              | Some e when String.equal e.digest digest -> Some e
              | _ -> None
            in
            match live with
            | Some e ->
              (* unchanged bytes: the verified envelope is enough — reuse
                 the live model and its compiled artifact *)
              staged :=
                {
                  st_key = key;
                  st_path = path;
                  st_digest = digest;
                  st_model = e.model;
                  st_compiled = e.compiled;
                  st_mtime = st.Unix.st_mtime;
                  st_size = st.Unix.st_size;
                }
                :: !staged;
              results := (key, Ok digest) :: !results
            | None -> begin
              match Vmodel.Impact_model.of_string payload with
              | Error reason ->
                all_ok := false;
                t.load_failures <- t.load_failures + 1;
                results := (key, Error reason) :: !results
              | Ok model ->
                staged :=
                  {
                    st_key = key;
                    st_path = path;
                    st_digest = digest;
                    st_model = model;
                    st_compiled = compile_model t model;
                    st_mtime = st.Unix.st_mtime;
                    st_size = st.Unix.st_size;
                  }
                  :: !staged;
                results := (key, Ok digest) :: !results
            end
          end
        end
      end)
    files;
  t.staged <- (if !all_ok then Some (List.rev !staged) else None);
  List.rev !results

let staged t = Option.is_some t.staged

let commit t =
  match t.staged with
  | None -> Error "nothing staged (run reload-stage first, and it must succeed)"
  | Some staged ->
    t.staged <- None;
    let events = ref [] in
    let seen = Hashtbl.create 8 in
    List.iter
      (fun s ->
        Hashtbl.replace seen s.st_key ();
        let old = Hashtbl.find_opt t.entries s.st_key in
        let same_bytes =
          match old with Some e -> String.equal e.digest s.st_digest | None -> false
        in
        if not same_bytes then begin
          let generation, previous =
            match old with
            | Some e -> (e.generation + 1, Some e.model)
            | None -> (1, None)
          in
          Hashtbl.replace t.entries s.st_key
            {
              key = s.st_key;
              path = s.st_path;
              generation;
              digest = s.st_digest;
              model = s.st_model;
              compiled = s.st_compiled;
              previous;
              mtime = s.st_mtime;
              size = s.st_size;
            };
          t.reloads <- t.reloads + 1;
          events := Loaded { key = s.st_key; generation } :: !events
        end)
      staged;
    Hashtbl.iter
      (fun key _ ->
        if not (Hashtbl.mem seen key) then events := Removed key :: !events)
      (Hashtbl.copy t.entries);
    List.iter
      (fun ev -> match ev with Removed key -> Hashtbl.remove t.entries key | _ -> ())
      !events;
    Ok (List.rev !events)

let find t key = Hashtbl.find_opt t.entries key

let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
  |> List.sort (fun a b -> String.compare a.key b.key)

let reloads t = t.reloads
let load_failures t = t.load_failures
let compiles t = t.compiles
let compile_wall_s t = t.compile_wall_s
