(* Order statistics, failure accounting and process memory, as the
   benchmark reports them. *)

(* Nearest-rank percentile: the smallest sample with at least [q] of all
   samples at or below it (1-based rank ceil(q * n)).  Unlike interpolating
   definitions it always returns a value that was measured. *)
let rank ~n q = max 1 (min n (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))))

let percentile xs q =
  match xs with
  | [||] -> nan
  | _ ->
    let a = Array.copy xs in
    Array.sort Float.compare a;
    a.(rank ~n:(Array.length a) q - 1)

let median xs = percentile xs 0.5

(* Samples strictly above the [q] percentile's rank.  A percentile is
   reported only when at least ten samples lie beyond it. *)
let beyond ~n q = if n = 0 then 0 else n - rank ~n q

let sum xs = Array.fold_left ( +. ) 0. xs

(* Open-loop latency: from the moment the request was due, not from when
   the generator got round to sending it, so a stall that delays later
   sends is charged to those requests. *)
let latency_from_due ~due ~recv = recv -. due

(* What went wrong with attempted operations.  Every category counts as
   failed; [fail_ratio] is failed over attempted. *)
type tally = {
  mutable attempted : int;
  mutable ok : int;
  mutable wrong : int;  (** completed with an output that failed its check *)
  mutable errored : int;  (** error answer, transport error or analysis error *)
  mutable shed : int;  (** refused under overload *)
  mutable degraded : int;  (** answered with the degraded widening only *)
  mutable timed_out : int;  (** no answer before the drain deadline *)
}

let tally () =
  { attempted = 0; ok = 0; wrong = 0; errored = 0; shed = 0; degraded = 0; timed_out = 0 }

type outcome = Ok_ | Wrong | Errored | Shed | Degraded | Timed_out

let record t o =
  t.attempted <- t.attempted + 1;
  match o with
  | Ok_ -> t.ok <- t.ok + 1
  | Wrong -> t.wrong <- t.wrong + 1
  | Errored -> t.errored <- t.errored + 1
  | Shed -> t.shed <- t.shed + 1
  | Degraded -> t.degraded <- t.degraded + 1
  | Timed_out -> t.timed_out <- t.timed_out + 1

let failed t = t.attempted - t.ok

let fail_ratio t = if t.attempted = 0 then 1. else float_of_int (failed t) /. float_of_int t.attempted

(* Peak resident set (VmHWM) of a live process, in MB; [None] once the
   process is gone. *)
let vm_hwm_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf_opt (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        else scan ()
    in
    let r = scan () in
    close_in ic;
    r
