type error =
  | Io of string
  | Bad_magic
  | Bad_header
  | Version_mismatch of { expected : int; found : int }
  | Kind_mismatch of { expected : string; found : string }
  | Truncated of { expected : int; got : int }
  | Corrupt

let error_to_string = function
  | Io msg -> "i/o error: " ^ msg
  | Bad_magic -> "not a checkpoint file"
  | Bad_header -> "malformed checkpoint header"
  | Version_mismatch { expected; found } ->
    Printf.sprintf "checkpoint version %d, expected %d" found expected
  | Kind_mismatch { expected; found } ->
    Printf.sprintf "checkpoint kind %S, expected %S" found expected
  | Truncated { expected; got } ->
    Printf.sprintf "checkpoint truncated: %d of %d payload bytes" got expected
  | Corrupt -> "checkpoint payload digest mismatch"

let magic = "violet-ckpt"

let header ~kind ~version payload =
  Printf.sprintf "%s %d %s %d %s\n" magic version kind (String.length payload)
    (Digest.to_hex (Digest.string payload))

let write ~path ~kind ~version payload =
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (header ~kind ~version payload);
        output_string oc payload);
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error (Io msg)

let read ~path ~kind ~version =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Io msg)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file -> Error Bad_magic
        | exception Sys_error msg -> Error (Io msg)
        | line -> begin
          match String.split_on_char ' ' line with
          | m :: _ when not (String.equal m magic) -> Error Bad_magic
          | [ _; v; k; len; digest ] -> begin
            match int_of_string_opt v, int_of_string_opt len with
            | Some v, _ when v <> version -> Error (Version_mismatch { expected = version; found = v })
            | Some _, Some len ->
              if not (String.equal k kind) then Error (Kind_mismatch { expected = kind; found = k })
              else begin
                (* the payload is read into the one string returned *)
                match really_input_string ic len with
                | exception End_of_file ->
                  let got = max 0 (in_channel_length ic - (String.length line + 1)) in
                  Error (Truncated { expected = len; got })
                | payload ->
                  if String.equal (Digest.to_hex (Digest.string payload)) digest then
                    Ok (payload, digest)
                  else Error Corrupt
              end
            | _ -> Error Bad_header
          end
          | _ -> Error Bad_magic
        end)
