type t = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (** bytes read past the last returned line *)
  mutable next_id : int;
}

let addr_of_string s =
  match String.index_opt s ':' with
  | None -> Ok (`Unix s)
  | Some _ -> begin
    match String.split_on_char ':' s with
    | "unix" :: rest -> Ok (`Unix (String.concat ":" rest))
    | [ "tcp"; host; port ] -> begin
      match int_of_string_opt port with
      | Some p when p > 0 -> Ok (`Tcp (host, p))
      | _ -> Error (Printf.sprintf "bad TCP port in %S" s)
    end
    | _ -> Error (Printf.sprintf "bad address %S (want unix:PATH or tcp:HOST:PORT)" s)
  end

let addr_to_string = Conn.addr_to_string

let connect addr =
  Result.map (fun fd -> { fd; buf = Buffer.create 256; next_id = 1 }) (Conn.dial addr)

(* Exponential backoff with jitter under an overall wall-clock deadline.
   The jitter source is a local seeded state (nothing in the repo touches
   the global [Random]); determinism does not matter here — the point is
   only that a thundering herd of restarting clients spreads out. *)
let connect_retry ?(deadline_s = 5.0) ?(base_delay_s = 0.001) ?(max_delay_s = 0.5) addr =
  let rng = Random.State.make [| Unix.getpid (); 0x5eed; int_of_float (deadline_s *. 1e3) |] in
  let t0 = Unix.gettimeofday () in
  let rec go attempt delay =
    match connect addr with
    | Ok c -> Ok c
    | Error e ->
      let elapsed = Unix.gettimeofday () -. t0 in
      if elapsed >= deadline_s then
        Error
          (Printf.sprintf "connect %s: gave up after %d attempt%s in %.2fs; last error: %s"
             (addr_to_string addr) attempt
             (if attempt = 1 then "" else "s")
             elapsed e)
      else begin
        let jittered = delay *. (0.5 +. Random.State.float rng 1.0) in
        let remaining = deadline_s -. elapsed in
        Unix.sleepf (Float.min jittered (Float.max 0. remaining));
        go (attempt + 1) (Float.min max_delay_s (delay *. 2.))
      end
  in
  go 1 base_delay_s

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* [data] is whole lines, newlines included *)
let write_lines c data =
  let len = String.length data in
  let pos = ref 0 in
  try
    while !pos < len do
      pos := !pos + Unix.write_substring c.fd data !pos (len - !pos)
    done;
    Ok ()
  with Unix.Unix_error (err, _, _) -> Error ("write: " ^ Unix.error_message err)

(* [timeout_s] bounds the wait for *each* read; a hung daemon therefore
   cannot block the caller forever.  [None] preserves the blocking
   behaviour. *)
let rec recv_line ?timeout_s c =
  let data = Buffer.contents c.buf in
  match String.index_opt data '\n' with
  | Some i ->
    let line = String.sub data 0 i in
    Buffer.clear c.buf;
    Buffer.add_string c.buf (String.sub data (i + 1) (String.length data - i - 1));
    Ok line
  | None -> begin
    let ready =
      match timeout_s with
      | None -> true
      | Some t -> begin
        match Unix.select [ c.fd ] [] [] t with
        | [], _, _ -> false
        | _ -> true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
      end
    in
    if not ready then
      Error
        (Printf.sprintf "timeout: no response within %gs"
           (Option.value ~default:0. timeout_s))
    else begin
      let chunk = Bytes.create 65536 in
      match Unix.read c.fd chunk 0 (Bytes.length chunk) with
      | 0 -> Error "connection closed by server"
      | n ->
        Buffer.add_subbytes c.buf chunk 0 n;
        recv_line ?timeout_s c
      | exception Unix.Unix_error (err, _, _) -> Error ("read: " ^ Unix.error_message err)
    end
  end

let call_raw c line =
  match write_lines c (line ^ "\n") with Error _ as e -> e | Ok () -> recv_line c

let ( let* ) = Result.bind

let post c req =
  let id = c.next_id in
  c.next_id <- id + 1;
  let* () = write_lines c (Protocol.request_line ~id req) in
  Ok id

let await ?timeout_s c id =
  let rec loop () =
    let* line = recv_line ?timeout_s c in
    let* got_id, resp = Protocol.decode_response line in
    match got_id with
    | Some i when i = id -> Ok resp
    | None -> Ok resp
    | Some _ -> loop ()  (* a stale response from an earlier abandoned call *)
  in
  loop ()

let call ?timeout_s c req =
  let* id = post c req in
  await ?timeout_s c id

let call_once ?timeout_s addr req =
  let* c = connect addr in
  Fun.protect ~finally:(fun () -> close c) (fun () -> call ?timeout_s c req)
