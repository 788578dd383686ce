type t = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable closed : bool;
  on_write_failed : unit -> unit;
}

(* Longer than any pause a healthy peer takes.  The longest is the
   router's: it reads no worker socket while [stats_to_wire] makes its
   blocking [stats] call (1 s timeout) to each shard, and a healthy shard
   answers that in milliseconds.  A peer that stops reading for longer is
   dropped, so it cannot stall the reactor that writes to it. *)
let send_timeout_s = 2.0

(* Far above the longest legitimate line: the largest check response over
   the four target models' config files is ~62 KB. *)
let max_line_bytes = 8 * 1024 * 1024

type addr = [ `Unix of string | `Tcp of string * int ]

let addr_to_string = function
  | `Unix path -> "unix:" ^ path
  | `Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* The one place an address is resolved: the client, the router's shard
   connections and [listen] all come through here. *)
let resolve = function
  | `Unix path -> Ok (Unix.ADDR_UNIX path)
  | `Tcp (host, port) -> begin
    match Unix.gethostbyname host with
    | exception Not_found -> Error (Printf.sprintf "unknown host %S" host)
    | { Unix.h_addr_list = [||]; _ } ->
      (* a resolvable name with an empty address list used to raise
         [Invalid_argument] out of [h_addr_list.(0)] *)
      Error (Printf.sprintf "host %S resolved to no addresses" host)
    | { Unix.h_addr_list; _ } -> Ok (Unix.ADDR_INET (h_addr_list.(0), port))
  end

let listen addr =
  let sa =
    match addr with
    | `Unix path ->
      if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ());
      Unix.ADDR_UNIX path
    | `Tcp (_, port) ->
      (* a host that does not resolve binds the loopback interface *)
      Result.value (resolve addr) ~default:(Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (match sa with
  | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix.ADDR_UNIX _ -> ());
  Unix.bind fd sa;
  Unix.listen fd 64;
  fd

let unlisten addr fd =
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match addr with `Unix path -> ( try Sys.remove path with Sys_error _ -> ()) | `Tcp _ -> ()

let dial addr =
  match resolve addr with
  | Error e -> Error e
  | Ok sa -> begin
    let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
    match Unix.connect fd sa with
    | () -> Ok fd
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "connect %s: %s" (addr_to_string addr) (Unix.error_message err))
  end

let make ?(on_write_failed = fun () -> ()) fd =
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO send_timeout_s
   with Unix.Unix_error _ -> ());
  { fd; buf = Buffer.create 256; closed = false; on_write_failed }

let fd c = c.fd
let closed c = c.closed

let close c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* every reactor is one thread, so one chunk serves every read and every
   write of every connection *)
let chunk = Bytes.create 65536

(* A response that cannot be written in full is a dropped response; the
   connection is closed (the peer would otherwise read a truncated line) and
   the failure is surfaced through [on_write_failed] so it lands in a
   counter instead of vanishing.  A peer that stops reading makes a write
   fail after [send_timeout_s].  The line leaves the reused line buffer a
   chunk at a time: no string of it is made, however long it is. *)
let send c v =
  if not c.closed then
    Wire.with_line v (fun buf ->
        let len = Buffer.length buf in
        let pos = ref 0 in
        try
          while !pos < len do
            let n = Int.min (len - !pos) (Bytes.length chunk) in
            Buffer.blit buf !pos chunk 0 n;
            pos := !pos + Unix.write c.fd chunk 0 n
          done
        with Unix.Unix_error _ ->
          c.on_write_failed ();
          close c)

(* one readable-event read; returns the complete lines received *)
let read_lines c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error _ ->
    close c;
    []
  | 0 ->
    close c;
    []
  | n ->
    (* only the new bytes are scanned: the pending prefix has no newline *)
    let lines = ref [] and start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get chunk i = '\n' then begin
        Buffer.add_subbytes c.buf chunk !start (i - !start);
        let line = Buffer.contents c.buf in
        Buffer.clear c.buf;
        if String.trim line <> "" then lines := line :: !lines;
        start := i + 1
      end
    done;
    Buffer.add_subbytes c.buf chunk !start (n - !start);
    if Buffer.length c.buf > max_line_bytes then begin
      close c;
      []
    end
    else List.rev !lines
