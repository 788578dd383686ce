(* The check path, layer by layer, in process.  Every workload's traced
   run times it on the models the workload itself produced or serves, so
   each check-side layer metric is measured on every workload: each model
   is imported from its exported file and compiled as a fleet worker
   loads it, checked against config files that enumerate its target and
   related parameters, and each answer is put in the wire form a worker
   sends and decoded as the router does.

   Per-request metrics are pooled over every request; per-model costs
   (import, compile, rendering every row's content key) are summed over
   the models, so they read as the cost of loading all of them. *)

module P = Violet.Pipeline
module Proto = Vserve.Protocol
module Checker = Vchecker.Checker
module CF = Vchecker.Config_file
module CM = Vmodel.Compiled_model
module M = Vmodel.Impact_model
module Reg = Vruntime.Config_registry
module S = Perfbench.Stats
module Span = Perfbench.Span
module Mix = Perfbench.Mix
module C = Common

(* No source gives the share of update checks among a checker's requests;
   [update_share] is a choice, not a measurement. *)
let update_share = 0.3
let configs_per_key = 25

(* Requests checked per traced run, spread over the models in a seeded
   order: enough that the pooled p99 has ten samples beyond it. *)
let requests = 1200

(* Values a config file may give one parameter: every member of a small
   domain, the ends, default and quartiles of an integer range. *)
let candidates (p : Reg.param) =
  match p.Reg.kind with
  | Reg.Bool -> [ 0; 1 ]
  | Reg.Enum ms -> List.init (List.length ms) Fun.id
  | Reg.Float_choices fs -> List.init (List.length fs) Fun.id
  | Reg.Int { lo; hi } ->
    List.sort_uniq compare
      [ lo; lo + ((hi - lo) / 4); lo + ((hi - lo) / 2); hi - ((hi - lo) / 4); hi; p.Reg.default ]

(* The config files of one model: the target parameter at each of its
   values, alone and with each related parameter at each of its values;
   [configs_per_key] of them, evenly spaced.  Fixed for all seeds: the
   seed chooses the request sequence, not the files. *)
let config_texts (m : M.t) registry =
  let line (p : Reg.param) v = Printf.sprintf "%s = %s\n" p.Reg.name (Reg.decode p v) in
  match List.filter_map (Reg.find_opt registry) (m.M.target :: m.M.related) with
  | [] -> [| "" |]
  | target :: related ->
    let all =
      List.concat_map
        (fun t ->
          line target t
          :: List.concat_map
               (fun (r : Reg.param) -> List.map (fun w -> line target t ^ line r w) (candidates r))
               related)
        (candidates target)
      |> List.sort_uniq compare |> Array.of_list
    in
    let n = Array.length all in
    if n <= configs_per_key then all
    else Array.init configs_per_key (fun i -> all.(i * n / configs_per_key))

(* A model as a workload hands it over: a name for the notes, the file it
   was exported to and the registry of its system. *)
type model = { key : string; file : string; registry : Reg.t }

type loaded = {
  m : model;
  model : M.t;
  compiled : CM.t;
  configs : string array;
  assignments : (string * int) list array;
}

let us s = s *. 1e6
let median_of n name f = S.median (Array.init n (fun _ -> snd (Span.timed name f)))
let mean xs = if xs = [||] then nan else S.sum xs /. float_of_int (Array.length xs)

let check (l : loaded) ~req = function
  | Mix.Current c ->
    Span.timed ~req "vchecker.check" (fun () ->
        Checker.check_current ~compiled:l.compiled ~model:l.model ~registry:l.m.registry
          ~file:(CF.parse l.configs.(c)) ())
  | Mix.Update (a, b) ->
    Span.timed ~req "vchecker.check" (fun () ->
        Checker.check_update ~compiled:l.compiled ~model:l.model ~registry:l.m.registry
          ~old_file:(CF.parse l.configs.(a)) ~new_file:(CF.parse l.configs.(b)) ())

(* Time every check-side layer on [models].  A model that cannot be
   loaded and a check that errs are recorded in [tally] as errored; every
   check is one attempted operation. *)
let measure ~seed ~(tally : S.tally) (models : model list) =
  let parse = ref [] and matching = ref [] in
  let of_string = ref 0. and compile = ref 0. and content_key = ref 0. in
  let load (m : model) =
    match P.import_model m.file with
    | Error e ->
      S.record tally S.Errored;
      C.note "FAIL %s: import: %s" m.key e;
      None
    | Ok model -> (
      of_string := !of_string +. median_of 5 "vmodel.of_string" (fun () -> ignore (P.import_model m.file));
      let compiled = CM.compile model in
      compile := !compile +. median_of 5 "vmodel.compile" (fun () -> ignore (CM.compile model));
      content_key :=
        !content_key
        +. median_of 5 "vmodel.content_key" (fun () ->
               List.iter (fun r -> ignore (Vmodel.Cost_row.content_key r)) model.M.rows);
      let configs = config_texts model m.registry in
      let assign text =
        let a, d = Span.timed "vchecker.parse" (fun () -> CF.to_assignment m.registry (CF.parse text)) in
        parse := d :: !parse;
        Result.map fst a
      in
      match Array.map assign configs with
      | results when Array.exists Result.is_error results ->
        S.record tally S.Errored;
        C.note "FAIL %s: a config file does not encode against the registry" m.key;
        None
      | results ->
        let assignments = Array.map Result.get_ok results in
        Array.iter
          (fun a -> matching := snd (Span.timed "vmodel.rows_matching" (fun () -> CM.rows_matching compiled a)) :: !matching)
          assignments;
        Some { m; model; compiled; configs; assignments })
  in
  let ls = Array.of_list (List.filter_map load models) in
  let reqs =
    if ls = [||] then [||]
    else
      Mix.sequence ~seed ~n:requests ~configs:(Array.map (fun l -> Array.length l.configs) ls) ~update_share
  in
  let n = Array.length reqs in
  let times = Array.make n nan and words = Array.make n nan and with_findings = ref 0 in
  let to_wire = Array.make n nan and encode = Array.make n nan in
  let decode = Array.make n nan and size = Array.make n nan in
  Array.iteri
    (fun i (r : Mix.req) ->
      let l = ls.(r.Mix.key) in
      let w0 = Gc.minor_words () in
      let rep, d = check l ~req:i r.Mix.kind in
      words.(i) <- Gc.minor_words () -. w0;
      times.(i) <- d;
      match rep with
      | Error e ->
        S.record tally S.Errored;
        C.note "FAIL %s: check: %s" l.m.key e
      | Ok rep ->
        S.record tally S.Ok_;
        let findings = rep.Checker.findings in
        if findings <> [] then incr with_findings;
        let _, d = Span.timed ~req:i "vserve.to_wire" (fun () -> Proto.findings_to_wire findings) in
        to_wire.(i) <- d;
        let line, d =
          Span.timed ~req:i "vserve.encode" (fun () ->
              Proto.encode_response ~id:i
                (Proto.Report
                   {
                     Proto.findings;
                     checked_in_s = times.(i);
                     generation = 1;
                     batched = false;
                     coalesced = false;
                     degraded = false;
                   }))
        in
        encode.(i) <- d;
        size.(i) <- float_of_int (String.length line);
        decode.(i) <- snd (Span.timed ~req:i "vserve.decode" (fun () -> Proto.decode_response line)))
    reqs;
  let answered xs = Array.of_list (List.filter Float.is_finite (Array.to_list xs)) in
  (* per model, as notes: the check time's median and the answer's size *)
  Array.iteri
    (fun k l ->
      let mine xs = answered (Array.of_list (List.filteri (fun i _ -> reqs.(i).Mix.key = k) (Array.to_list xs))) in
      C.note "check path %-28s %4d requests, check p50 %9.1f us, answer %7.2f KB" l.m.key
        (Array.length (mine times)) (us (S.median (mine times))) (mean (mine size) /. 1024.))
    ls;
  let share = if n = 0 then nan else float_of_int !with_findings /. float_of_int n in
  [
    C.m "vmodel.of_string_ms" "ms" (1e3 *. !of_string);
    C.m "vmodel.compile_ms" "ms" (1e3 *. !compile);
    C.m "vmodel.content_key_us" "us" (us !content_key);
    C.m "vchecker.parse_us" "us" (us (S.median (Array.of_list !parse)));
    C.m "vmodel.rows_matching_us" "us" (us (S.median (Array.of_list !matching)));
    C.m "vchecker.check_us.p50" "us" (us (S.percentile times 0.5));
    C.m "vchecker.check_us.p99" "us" (us (S.percentile times 0.99));
    C.m "vchecker.minor_kwords" "kwords" (S.median words /. 1e3);
    C.m "vchecker.finding_share" "ratio" share;
    (* per-request means: most answers are empty, so a median says nothing
       about the requests that carry findings *)
    C.m "vserve.to_wire_us" "us" (us (mean (answered to_wire)));
    C.m "vserve.encode_us" "us" (us (mean (answered encode)));
    C.m "vserve.decode_us" "us" (us (mean (answered decode)));
    C.m "vserve.response_kb" "KB" (mean (answered size) /. 1024.);
  ]
