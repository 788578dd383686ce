(* Arguments, environment stamp and the result line shared by every
   workload. *)

module W = Vserve.Wire

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  commit : string;
  out_dir : string;  (** run artifacts: models, fleet sockets, trace files *)
  probe : bool;  (** set up the workload and exit: one set-up sample *)
}

let now = Unix.gettimeofday

(* Fleet size and generator connections: one per core, capped so a large
   machine does not turn the serve workload into a memory test. *)
let cores () = Domain.recommended_domain_count ()
let shards () = max 1 (min 4 (cores ()))

let stamp args ~offered_rate =
  W.Obj
    [
      ("cores", W.Int (cores ()));
      ("ocaml", W.String Sys.ocaml_version);
      ("commit", W.String args.commit);
      ("seed", W.Int args.seed);
      ("shards", W.Int (shards ()));
      ("offered_rate", W.Float offered_rate);
      ("workload", W.String args.workload);
      ("seconds", W.Float args.seconds);
      ("trace", W.Bool args.trace);
    ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error _ -> ()
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

(* A fresh directory for this run's artifacts, private to the process so
   concurrent runs in one checkout cannot collide. *)
let run_dir args name =
  let dir = Filename.concat args.out_dir (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  dir

let file_size path = (Unix.stat path).Unix.st_size

(* Run [f] in a child forked from this process and return its result over a
   pipe.  Each child starts from the parent's heap — what the workload set
   up and nothing an earlier child built — so every measured unit is a
   fresh run, not one warmed by the memos of the last.  The parent must not
   have spawned a domain. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let code =
      try
        let oc = Unix.out_channel_of_descr w in
        Marshal.to_channel oc (f ()) [];
        close_out oc;
        0
      with e ->
        prerr_endline ("measuring child: " ^ Printexc.to_string e);
        1
    in
    (* no at_exit handlers and no second flush of the parent's buffers *)
    Unix._exit code
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let v = try Some (Marshal.from_channel ic : 'a) with End_of_file | Failure _ -> None in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    (match v with Some v -> v | None -> failwith "a measuring child died")

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let print_line (v : W.t) =
  print_string (W.to_string v);
  print_newline ()

let note fmt = Printf.ksprintf (fun s -> print_string ("# " ^ s ^ "\n"); flush stdout) fmt

let metrics_wire ms =
  W.Obj
    (List.map
       (fun x ->
         (* a metric that could not be measured is written as -1, never as
            a non-number the JSON line could not carry; the run that
            reports it is not correct (see [finish]) *)
         let v = if Float.is_finite x.value then x.value else -1. in
         (x.name, W.Obj [ ("value", W.Float v); ("unit", W.String x.unit_) ]))
       ms)

(* Lines run.py reads before the result: each is a JSON object
   with a single key. *)
let print_extra key v = print_line (W.Obj [ (key, v) ])

(* Per-layer summary printed by a traced run: each metric by name. *)
let print_summary ms =
  List.iter (fun x -> note "%-40s %14.4f %s" x.name x.value x.unit_) ms

(* The end of every run: the end-to-end metrics as a line for run.py, then
   the result line, whose metrics are the end-to-end ones or, traced, the
   per-layer ones (also printed as a summary).  [untraced_layers] are
   per-layer metrics only an untraced run measures; they go on a line of
   their own, which run.py adds to the traced run's per-layer metrics.  An
   end-to-end metric that could not be measured fails the run and counts
   as one more failed operation: its -1 must never read as an
   improvement. *)
let finish ?(untraced_layers = []) ~trace ~correct ~(tally : Perfbench.Stats.tally) ~end_to_end ~layers () =
  print_extra "end_to_end" (metrics_wire end_to_end);
  if not trace then print_extra "untraced_layers" (metrics_wire untraced_layers);
  let unmeasured = List.filter (fun x -> not (Float.is_finite x.value)) end_to_end in
  List.iter (fun x -> note "FAIL %s could not be measured" x.name) unmeasured;
  if trace then print_summary layers;
  let n = List.length unmeasured in
  print_line
    (W.Obj
       [
         ("correct", W.Bool (correct && n = 0));
         ("attempted", W.Int (max 1 tally.Perfbench.Stats.attempted + n));
         ("failed", W.Int (Perfbench.Stats.failed tally + n));
         ("metrics", metrics_wire (if trace then layers else end_to_end));
       ])

(* ------------------------------------------------------------------ *)
(* Set-up samples                                                      *)
(* ------------------------------------------------------------------ *)

(* One set-up sample is a fresh process of this program that starts, sets
   the workload up and exits: process start, library initialisation and
   the workload's own preparation, timed from outside. *)
let setup_sample args =
  let argv =
    [|
      Sys.executable_name; "--workload"; args.workload; "--seed"; string_of_int args.seed;
      "--seconds"; Printf.sprintf "%g" args.seconds; "--out"; args.out_dir; "--setup-probe";
    |]
  in
  let t0 = now () in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr Unix.stderr in
  let _, status = Unix.waitpid [] pid in
  let t1 = now () in
  match status with Unix.WEXITED 0 -> t1 -. t0 | _ -> nan

(* Samples are taken between timed operations, spread over the run, so
   their median does not rest on one moment of a host whose speed drifts
   over seconds. *)
let sample_setup args (log : float list ref) = log := setup_sample args :: !log

let setup_ok samples = Array.for_all Float.is_finite samples
