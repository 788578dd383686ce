type t = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable closed : bool;
  on_write_failed : unit -> unit;
}

(* Longer than any pause a healthy peer takes.  The longest is the
   router's: it reads no worker socket while [stats_to_wire] makes its
   blocking sync_call (1 s timeout) to each shard, and a healthy shard
   answers that in milliseconds.  A peer that stops reading for longer is
   dropped, so it cannot stall the reactor that writes to it. *)
let send_timeout_s = 2.0

(* Far above the longest legitimate line: the largest check response over
   the four target models' config files is ~62 KB. *)
let max_line_bytes = 8 * 1024 * 1024

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

(* A response that cannot be written in full is a dropped response; the
   connection is closed (the peer would otherwise read a truncated line) and
   the failure is surfaced through [on_write_failed] so it lands in a
   counter instead of vanishing.  A peer that stops reading makes a write
   fail after [send_timeout_s].  The caller's line carries its newline, so
   it is written without another copy. *)
let write c data =
  if not c.closed then begin
    let len = String.length data in
    let pos = ref 0 in
    try
      while !pos < len do
        pos := !pos + Unix.write_substring c.fd data !pos (len - !pos)
      done
    with Unix.Unix_error _ ->
      c.on_write_failed ();
      close c
  end

(* every reactor is one thread, so one read buffer serves every connection *)
let chunk = Bytes.create 65536

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
