module Checkpoint = Vresilience.Checkpoint

let kind = "solver-cache"
let version = 1

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    s

let file ~dir ~system ~param =
  Filename.concat dir (Printf.sprintf "%s.%s.vcache" (sanitize system) (sanitize param))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

(* ------------------------------------------------------------------ *)
(* Save / load                                                         *)
(* ------------------------------------------------------------------ *)

(* The payload is a [Marshal]ed {!Solver_cache.dump}.  Dumps are built to
   survive this: memo keys are rendered constraint strings, footprints are
   sorted symbol *names*, models are [(name * value)] assignments and cores
   are string sets — no hash-consed expressions or process-local ids
   anywhere.  The envelope's digest check runs before unmarshalling, so a
   damaged file can't crash the process inside [Marshal.from_string]. *)

(* The stamp rides in the envelope's kind, digested so any stamp text fits
   the header line: a file saved under another stamp fails the kind check
   before its payload is read. *)
let stamped_kind stamp = kind ^ ":" ^ Digest.to_hex (Digest.string stamp)

let save ~path ~stamp dump =
  mkdir_p (Filename.dirname path);
  let payload = Marshal.to_string (dump : Solver_cache.dump) [] in
  Checkpoint.write ~path ~kind:(stamped_kind stamp) ~version payload

let load ~path ~stamp =
  match Checkpoint.read ~path ~kind:(stamped_kind stamp) ~version with
  | Error _ as e -> e
  | Ok payload -> (
    (* digest already verified, but stay defensive: a format change without
       a version bump must degrade to a cold cache, not an exception *)
    match (Marshal.from_string payload 0 : Solver_cache.dump) with
    | d -> Ok d
    | exception _ -> Error Checkpoint.Corrupt)

let load_filtered ~path ~stamp ~dirty =
  match load ~path ~stamp with
  | Error _ as e -> e
  | Ok d -> Ok (Solver_cache.filter_dump d ~dirty)
