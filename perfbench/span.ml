(* In-memory spans around calls into the program's layers.

   A span records its name, start, end, parent, request id and the minor
   words allocated inside it.  Spans stay in memory while the workload runs
   and are written once, at exit, with the Vserve.Wire codec.

   Some stages are reachable only inside Pipeline.analyze, so the traced
   run re-invokes them on the returned analysis and records the re-timed
   spans as children of the analyze span although they run after it.  Self
   time is therefore the span's duration minus the durations of its
   children (not minus the part of its interval they cover): for children
   nested inside the parent the two agree, and for re-timed ones the
   subtraction is what leaves the stages nobody can reach from outside. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request id, -1 when the span serves no single request *)
  t0 : float;
  t1 : float;
  minor_words : float;
}

let enabled = ref false
let spans : t list ref = ref []
let next_id = ref 0

let reset ~on =
  enabled := on;
  spans := [];
  next_id := 0

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(* Take over the spans a forked child recorded after emptying its copy of
   [spans].  The child numbered them from this process's counter at the
   fork, so they follow the parent's; the counter moves past them. *)
let absorb (child : t list) =
  spans := child @ !spans;
  List.iter (fun s -> if s.id >= !next_id then next_id := s.id + 1) child

let add ?(parent = -1) ?(req = -1) ?(minor_words = 0.) ?id name ~t0 ~t1 =
  let id = match id with Some id -> id | None -> fresh_id () in
  if !enabled then spans := { id; name; parent; req; t0; t1; minor_words } :: !spans;
  id

(* Time [f], recording it as one span when tracing is on; returns the
   result with the measured duration in seconds.  Pass [id] (from
   [fresh_id]) when children must name the span before it runs. *)
let timed ?id ?parent ?req name f =
  let w0 = if !enabled then Gc.minor_words () else 0. in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  if !enabled then
    ignore (add ?parent ?req ~minor_words:(Gc.minor_words () -. w0) ?id name ~t0 ~t1);
  (r, t1 -. t0)

let duration s = s.t1 -. s.t0

(* Self time: a span's duration minus its children's durations, never
   below zero. *)
let self_time ~duration ~children = Float.max 0. (duration -. children)

let self_times (all : t list) =
  let child_sum = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt child_sum s.parent) in
        Hashtbl.replace child_sum s.parent (prev +. duration s))
    all;
  List.map
    (fun s ->
      let children = Option.value ~default:0. (Hashtbl.find_opt child_sum s.id) in
      (s, self_time ~duration:(duration s) ~children))
    all

(* Spans in the order they were recorded, each with its self time. *)
let to_wire (all : t list) =
  let open Vserve.Wire in
  List
    (List.rev_map
       (fun (s, self) ->
         Obj
           [
             ("id", Int s.id);
             ("name", String s.name);
             ("parent", Int s.parent);
             ("req", Int s.req);
             ("start", Float s.t0);
             ("end", Float s.t1);
             ("self", Float self);
             ("minor_words", Float s.minor_words);
           ])
       (self_times all))

let write ~path ~stamp all =
  let oc = open_out_bin path in
  output_string oc
    (Vserve.Wire.to_string (Vserve.Wire.Obj [ ("env", stamp); ("spans", to_wire all) ]));
  output_char oc '\n';
  close_out oc
