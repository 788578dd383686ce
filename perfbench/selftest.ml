(* Self-tests for the benchmark's own arithmetic: ranks, latency from due
   time, failure accounting, self time, and seeded inputs.  Run with
   `dune test perfbench`. *)

module S = Perfbench.Stats
module Span = Perfbench.Span
module Mix = Perfbench.Mix

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let () =
  (* nearest rank: the ceil(q n)-th smallest sample *)
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "p50 of 1..100" (S.percentile hundred 0.5 = 50.);
  check "p99 of 1..100" (S.percentile hundred 0.99 = 99.);
  check "p100 of 1..100" (S.percentile hundred 1.0 = 100.);
  check "p0 is the minimum" (S.percentile hundred 0.0 = 1.);
  check "p50 of ten" (S.percentile (Array.init 10 float_of_int) 0.5 = 4.);
  check "p99 of ten is the maximum" (S.percentile (Array.init 10 float_of_int) 0.99 = 9.);
  check "one sample" (S.percentile [| 7. |] 0.99 = 7.);
  check "no sample" (Float.is_nan (S.percentile [||] 0.5));
  check "percentile leaves its input alone" (hundred.(0) = 100.);
  check "ten beyond p99 of 1000" (S.beyond ~n:1000 0.99 = 10);
  check "nine beyond p99 of 999" (S.beyond ~n:999 0.99 = 9);
  check "eleven beyond p99 of 1100" (S.beyond ~n:1100 0.99 = 11)

let () =
  (* latency counts from the due time, so a generator stall is charged to
     the requests it delayed *)
  check "latency from due, not from send" (close (S.latency_from_due ~due:10.0 ~recv:10.7) 0.7);
  let start = 100. and rate = 4. in
  check "request 0 due at start" (close (Mix.due ~start ~rate 0) 100.);
  check "request 6 due 1.5 s later" (close (Mix.due ~start ~rate 6) 101.5);
  (* a stall that sends requests 0..3 together at t=101 charges each the
     wait since its own due time *)
  let lat = Array.init 4 (fun i -> S.latency_from_due ~due:(Mix.due ~start ~rate i) ~recv:101.) in
  check "stall charged per request" (Array.for_all2 close lat [| 1.; 0.75; 0.5; 0.25 |])

let () =
  let t = S.tally () in
  List.iter (S.record t) [ S.Ok_; S.Ok_; S.Wrong; S.Shed; S.Degraded; S.Timed_out; S.Errored; S.Ok_ ];
  check "attempted counts every outcome" (t.S.attempted = 8);
  check "every non-ok outcome fails" (S.failed t = 5);
  check "fail ratio" (close (S.fail_ratio t) (5. /. 8.));
  check "no attempt is a total failure" (S.fail_ratio (S.tally ()) = 1.)

let () =
  (* parent 0..10 with nested children 1..3 and 4..6, and one re-timed
     child recorded after the parent (12..14); grandchild 4.5..5 *)
  Span.reset ~on:true;
  let p = Span.add "parent" ~t0:0. ~t1:10. in
  ignore (Span.add ~parent:p "a" ~t0:1. ~t1:3.);
  let b = Span.add ~parent:p "b" ~t0:4. ~t1:6. in
  ignore (Span.add ~parent:b "b.inner" ~t0:4.5 ~t1:5.);
  ignore (Span.add ~parent:p "retimed" ~t0:12. ~t1:14.);
  let self = Span.self_times !Span.spans in
  let self_of name = snd (List.find (fun (s, _) -> s.Span.name = name) self) in
  check "self = span - children" (close (self_of "parent") 4.);
  check "self of a child without children" (close (self_of "a") 2.);
  check "grandchildren leave the parent alone" (close (self_of "b") 1.5);
  check "self never negative"
    (let q = Span.add "q" ~t0:0. ~t1:1. in
     ignore (Span.add ~parent:q "long" ~t0:0. ~t1:3.);
     close (snd (List.find (fun (s, _) -> s.Span.name = "q") (Span.self_times !Span.spans))) 0.);
  (* a forked child numbers its spans from the parent's counter *)
  let next = Span.fresh_id () + 1 in
  let child = [ { (List.hd !Span.spans) with Span.id = next; name = "child" } ] in
  Span.absorb child;
  check "absorbed spans are kept" (List.exists (fun s -> s.Span.name = "child") !Span.spans);
  check "ids stay unique after absorbing" (Span.fresh_id () > next);
  Span.reset ~on:false;
  ignore (Span.add "off" ~t0:0. ~t1:1.);
  check "tracing off records nothing" (!Span.spans = []);
  let r, d = Span.timed "bare" (fun () -> 42) in
  check "timed returns the result and a duration" (r = 42 && d >= 0.)

let () =
  let corpus seed = List.map Vfuzz.Genspec.to_string (Mix.corpus ~corpus_seed:42 ~count:20 ~seed) in
  check "same seed, same corpus" (corpus 7 = corpus 7);
  check "another seed, another order" (corpus 7 <> corpus 8);
  check "another seed, the same systems"
    (List.sort compare (corpus 7) = List.sort compare (corpus 8));
  let seq seed = Mix.sequence ~seed ~n:500 ~configs:[| 3; 5; 1; 4 |] ~update_share:0.3 in
  check "same seed, same requests" (seq 7 = seq 7);
  check "another seed, other requests" (seq 7 <> seq 8);
  let s = seq 9 in
  check "config indices in range"
    (Array.for_all
       (fun (r : Mix.req) ->
         let n = [| 3; 5; 1; 4 |].(r.Mix.key) in
         match r.Mix.kind with
         | Mix.Current c -> c >= 0 && c < n
         | Mix.Update (a, b) -> a >= 0 && a < n && b = (a + 1) mod n)
       s);
  check "every key drawn" (List.for_all (fun k -> Array.exists (fun (r : Mix.req) -> r.Mix.key = k) s) [ 0; 1; 2; 3 ])

let () =
  (* answers are judged once per distinct body: the body leaves out the id
     and the timing, and nothing else *)
  let module P = Vserve.Protocol in
  let report ~id ~s ~degraded =
    P.encode_response ~id
      (P.Report
         { P.findings = []; checked_in_s = s; generation = 1; batched = false; coalesced = false; degraded })
  in
  let body l = Perfbench.Answer.report_body l in
  check "id read from the prefix" (Perfbench.Answer.id_of_line (report ~id:42 ~s:0.5 ~degraded:false) = Some 42);
  check "a report has a body" (body (report ~id:1 ~s:0.25 ~degraded:false) <> None);
  check "id and timing left out"
    (body (report ~id:1 ~s:0.25 ~degraded:false) = body (report ~id:907 ~s:1e-5 ~degraded:false));
  check "any other field kept"
    (body (report ~id:1 ~s:0.25 ~degraded:false) <> body (report ~id:1 ~s:0.25 ~degraded:true));
  check "an error answer has no body"
    (body (P.encode_response ~id:3 (P.Error_resp { code = P.Overloaded; message = "busy" })) = None);
  check "a cut line has no body" (body "{\"id\":5,\"ok\":{\"checked_in_s\":" = None)

let () =
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
