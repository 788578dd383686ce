(* Tests for the serving layer: wire-protocol round-trips (QCheck), the
   model registry's crash/corruption behavior, an end-to-end daemon whose
   answers must be byte-identical to the in-process checker, and the
   daemon's queue: checks admitted in one read, and deadline shedding. *)

module W = Vserve.Wire
module P = Vserve.Protocol
module Reg = Vserve.Registry
module Server = Vserve.Server
module Client = Vserve.Client
module Checker = Vchecker.Checker
module Row = Vmodel.Cost_row
module M = Vmodel.Impact_model
module TC = Vchecker.Test_case

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let qt = QCheck_alcotest.to_alcotest

let or_fail = function Ok v -> v | Error e -> Alcotest.fail e

let mk_tmpdir () =
  let path = Filename.temp_file "vserve" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let fixture_model =
  let m = lazy (Violet.Pipeline.analyze_exn Fixtures.target "autocommit").Violet.Pipeline.model in
  fun () -> Lazy.force m

(* ------------------------------------------------------------------ *)
(* Wire: canonical JSON                                                *)
(* ------------------------------------------------------------------ *)

(* any byte can appear in a string (control characters get escaped, the rest
   pass through raw, so UTF-8 and even non-UTF-8 bytes survive) *)
let gen_str = QCheck2.Gen.(small_string ~gen:char)

(* finite floats only: the protocol never produces nan/inf (they render as
   null), so the round-trip property quantifies over finite values *)
let gen_float =
  QCheck2.Gen.(
    map (fun (m, e) -> ldexp (float_of_int m) e)
      (pair (int_range (-1_000_000) 1_000_000) (int_range (-30) 30)))

let gen_wire =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return W.Null;
                 map (fun b -> W.Bool b) bool;
                 map (fun i -> W.Int i) int;
                 map (fun f -> W.Float f) gen_float;
                 map (fun s -> W.String s) gen_str;
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 (1, map (fun l -> W.List l) (list_size (int_range 0 4) (self (n / 2))));
                 ( 1,
                   map
                     (fun fs -> W.Obj fs)
                     (list_size (int_range 0 4) (pair gen_str (self (n / 2)))) );
               ]))

let prop_wire_roundtrip =
  QCheck2.Test.make ~name:"wire values survive print -> parse canonically" ~count:500
    gen_wire (fun v ->
      let s = W.to_string v in
      match W.of_string s with
      | Ok v' -> String.equal (W.to_string v') s
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Protocol: request/response round-trips                              *)
(* ------------------------------------------------------------------ *)

let gen_workload =
  QCheck2.Gen.(small_list (pair gen_str (int_range (-1000) 1000)))

let gen_request =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun key config -> P.Check_current { key; config }) gen_str gen_str;
        map3
          (fun key old_config new_config -> P.Check_update { key; old_config; new_config })
          gen_str gen_str gen_str;
        map2
          (fun key workloads -> P.Check_upgrade { key; workloads })
          gen_str
          (option (pair gen_workload gen_workload));
        return P.Health;
        return P.Stats;
        return P.Reload_stage;
        return P.Reload_commit;
        return P.Shutdown;
      ])

let prop_request_roundtrip =
  QCheck2.Test.make ~name:"requests survive encode -> decode byte-identically"
    ~count:500
    QCheck2.Gen.(pair (int_range 0 1_000_000) gen_request)
    (fun (id, req) ->
      let line = P.encode_request ~id req in
      match P.decode_request line with
      | Error _ -> false
      | Ok (id', req') ->
        id' = Some id && String.equal (P.encode_request ~id req') line)

(* findings with generated rows: constraints come from a small expression
   pool (round-tripped through the same sexp serialization models use) *)
let expr_pool =
  let v name dom origin = Vsmt.Expr.{ name; dom; origin } in
  Vsmt.Expr.
    [
      of_var (v "autocommit" Vsmt.Dom.bool Config) ==. const 1;
      of_var (v "flush" (Vsmt.Dom.int_range 0 2) Config) ==. const 0;
      of_var (v "kind" (Vsmt.Dom.enum "kind" [ "R"; "W" ]) Workload) ==. const 1;
      of_var (v "n" (Vsmt.Dom.int_range 0 7) Config) >. const 4;
    ]

let gen_cost =
  QCheck2.Gen.(
    map3
      (fun lat (i1, i2, i3) (i4, i5, i6) ->
        {
          Vruntime.Cost.latency_us = lat;
          instructions = i1;
          syscalls = i2;
          io_calls = i3;
          io_bytes = i4;
          sync_ops = i5;
          net_ops = i6;
          allocations = 0;
          cache_ops = 0;
        })
      gen_float
      (triple small_nat small_nat small_nat)
      (triple small_nat small_nat small_nat))

let gen_row =
  QCheck2.Gen.(
    map3
      (fun state_id (config_constraints, workload_pred) (cost, traced, chain, ops) ->
        {
          Row.state_id;
          config_constraints;
          workload_pred;
          cost;
          traced_latency_us = traced;
          chain;
          nodes = [];
          critical_ops = ops;
        })
      small_nat
      (pair (small_list (oneofl expr_pool)) (small_list (oneofl expr_pool)))
      (quad gen_cost gen_float (small_list gen_str) (small_list gen_str)))

let gen_finding =
  QCheck2.Gen.(
    map3
      (fun (param, message, trigger) (slow_row, fast_row) (ratio, critical_path, test_case) ->
        {
          Checker.param;
          message;
          slow_row;
          fast_row;
          ratio;
          trigger;
          critical_path;
          test_case;
        })
      (triple gen_str gen_str gen_str)
      (pair gen_row (option gen_row))
      (triple gen_float (small_list gen_str)
         (option
            (map2
               (fun workload description -> { TC.workload; description })
               gen_workload gen_str))))

let gen_response =
  QCheck2.Gen.(
    oneof
      [
        map3
          (fun findings (generation, checked_in_s) (batched, coalesced, degraded) ->
            P.Report
              { P.findings; checked_in_s; generation; batched; coalesced; degraded })
          (small_list gen_finding)
          (pair small_nat gen_float)
          (triple bool bool bool);
        map2
          (fun status models -> P.Health_info { status; models })
          gen_str
          (small_list
             (map3
                (fun mi_key mi_generation mi_digest -> { P.mi_key; mi_generation; mi_digest })
                gen_str small_nat gen_str));
        map (fun w -> P.Stats_info w) gen_wire;
        map3
          (fun phase ok entries -> P.Reload_info { phase; ok; entries })
          (oneofl [ "stage"; "commit" ])
          bool
          (small_list (pair gen_str gen_str));
        map2
          (fun code message -> P.Error_resp { code; message })
          (oneofl [ P.Overloaded; P.Bad_request; P.Unknown_model; P.Check_failed; P.Shutting_down ])
          gen_str;
        return P.Bye;
      ])

let prop_response_roundtrip =
  QCheck2.Test.make ~name:"responses survive encode -> decode byte-identically"
    ~count:300
    QCheck2.Gen.(pair (int_range 0 1_000_000) gen_response)
    (fun (id, resp) ->
      let line = P.encode_response ~id resp in
      match P.decode_response line with
      | Error _ -> false
      | Ok (id', resp') ->
        id' = Some id && String.equal (P.encode_response ~id resp') line)

(* ------------------------------------------------------------------ *)
(* Latency histogram                                                   *)
(* ------------------------------------------------------------------ *)

module Lat = Vserve.Latency

let histogram us =
  let h = Lat.create () in
  List.iter (fun us -> Lat.observe h ~us) us;
  h

let lat_field h name = W.member name (Lat.to_wire h)

(* how the fleet router folds a worker's histogram into its own: the
   worker prints it, the router parses it back *)
let prop_latency_merge_through_wire =
  QCheck2.Test.make ~name:"latency histogram merges the same through the wire" ~count:300
    QCheck2.Gen.(
      pair (small_list (float_range (-10.) 1e8)) (small_list (float_range (-10.) 1e8)))
    (fun (base, shipped) ->
      let h = histogram shipped in
      let direct = histogram base and via_wire = histogram base in
      Lat.merge ~into:direct h;
      (match W.of_string (W.to_string (Lat.to_wire h)) with
      | Ok v -> (
        match Lat.of_wire v with
        | Some h' -> Lat.merge ~into:via_wire h'
        | None -> QCheck2.Test.fail_report "of_wire rejected what to_wire printed")
      | Error e -> QCheck2.Test.fail_report e);
      let exact h = List.map (lat_field h) [ "observations"; "max_us"; "bucket_counts" ] in
      let mean h = Option.get (Option.bind (lat_field h "mean_us") W.to_float) in
      exact direct = exact via_wire
      && Float.abs (mean direct -. mean via_wire) <= 1e-9 *. Float.max 1. (mean direct))

let test_latency_percentiles () =
  let p h name = Option.get (Option.bind (lat_field h name) W.to_float) in
  let exactly = Alcotest.float 0. in
  check exactly "an empty histogram reads 0" 0. (p (Lat.create ()) "p99_us");
  let h = histogram [ 3.; 3.; 5.; 700. ] in
  check exactly "p50 is its bucket's upper bound" 4. (p h "p50_us");
  check exactly "p99 is its bucket's upper bound" 1024. (p h "p99_us");
  check exactly "the max is exact" 700. (p h "max_us");
  check exactly "the overflow bucket reads the max" 1e9 (p (histogram [ 1.; 1e9 ]) "p99_us")

let test_nonascii_and_no_fast_row () =
  (* the satellite cases pinned explicitly: a finding for an unknown-cost
     region (fast_row = None) whose strings carry non-ASCII bytes *)
  let slow_row =
    {
      Row.state_id = 7;
      config_constraints = [ List.hd expr_pool ];
      workload_pred = [];
      cost = { Vruntime.Cost.zero with Vruntime.Cost.latency_us = 42.5 };
      traced_latency_us = 42.5;
      chain = [ "größe"; "キー" ];
      nodes = [];
      critical_ops = [];
    }
  in
  let finding =
    {
      Checker.param = "innodb_büffer_größe";
      message = "значение 🦊 may be specious";
      slow_row;
      fast_row = None;
      ratio = 0.;
      trigger = "degraded";
      critical_path = [];
      test_case = None;
    }
  in
  let wire = P.findings_to_wire [ finding ] in
  let s = W.to_string wire in
  let decoded = or_fail (P.findings_of_wire (or_fail (W.of_string s))) in
  check Alcotest.string "byte-identical re-encode" s
    (W.to_string (P.findings_to_wire decoded));
  (match decoded with
  | [ f ] ->
    check Alcotest.bool "fast_row stays None" true (f.Checker.fast_row = None);
    check Alcotest.string "non-ASCII param intact" "innodb_büffer_größe" f.Checker.param
  | _ -> Alcotest.fail "expected one finding");
  (* non-ASCII config text reaches the checker unchanged *)
  let req = P.Check_current { key = "mini"; config = "comment = \"значение 🦊\"\n" } in
  match P.decode_request (P.encode_request ~id:3 req) with
  | Ok (Some 3, req') ->
    check Alcotest.string "config bytes intact" (P.encode_request ~id:3 req)
      (P.encode_request ~id:3 req')
  | _ -> Alcotest.fail "request round-trip failed"

(* The escape fast path passes a string through whole only when no byte
   needs escaping; a line must never carry a raw control byte. *)
let test_wire_escapes () =
  let every_byte = String.init 256 Char.chr in
  let printed = W.to_string (W.String every_byte) in
  check Alcotest.bool "no raw control byte" false
    (String.exists (fun c -> Char.code c < 0x20) printed);
  check Alcotest.bool "round-trips" true (W.of_string printed = Ok (W.String every_byte));
  check Alcotest.string "plain text verbatim" "\"größe_42 (x > 3)\""
    (W.to_string (W.String "größe_42 (x > 3)"))

(* Lines are rendered in one reused buffer: a large answer, a small one and
   one over the buffer's 1 MiB keep limit must each come out exactly as
   [encode_response ^ "\n"], whatever was written before them. *)
(* the mysql/autocommit answer to an empty config file: ~34 KB of findings *)
let mysql_report =
  lazy
    (let target = Targets.Cases.target_of "mysql" in
     let registry = target.Violet.Pipeline.registry in
     let model = (Violet.Pipeline.analyze_exn target "autocommit").Violet.Pipeline.model in
     let rep =
       or_fail
         (Checker.check_current ~model ~registry ~file:(Vchecker.Config_file.parse "") ())
     in
     P.Report
       {
         P.findings = rep.Checker.findings;
         checked_in_s = 0.25;
         generation = 2;
         batched = false;
         coalesced = false;
         degraded = false;
       })

let test_line_buffer_reuse () =
  let report = Lazy.force mysql_report in
  let small = P.Error_resp { code = P.Overloaded; message = "admission queue full" } in
  let huge = P.Stats_info (W.String (String.make (2 * 1024 * 1024) 'z')) in
  let expect name ?id resp line =
    check Alcotest.bool name true (String.equal (P.encode_response ?id resp ^ "\n") line)
  in
  let response_line ?id resp = W.to_line (P.response_to_wire ?id resp) in
  let large_line = response_line ~id:1 report in
  let small_line = response_line ~id:2 small in
  let huge_line = response_line huge in
  let small_again = response_line ~id:3 small in
  let large_again = response_line ~id:4 report in
  check Alcotest.bool "the mysql answer is large" true (String.length large_line > 10_000);
  expect "large" ~id:1 report large_line;
  expect "small after large" ~id:2 small small_line;
  expect "over the keep limit" huge huge_line;
  expect "small after the limit" ~id:3 small small_again;
  expect "large after the limit" ~id:4 report large_again;
  let req = P.Check_current { key = "mysql-autocommit"; config = "autocommit = OFF\n" } in
  check Alcotest.string "request line" (P.encode_request ~id:5 req ^ "\n") (P.request_line ~id:5 req)

(* The daemon and the router write each line with [Conn.send], from the
   reused line buffer a 64 KiB chunk at a time.  Whatever came before, its
   bytes must be exactly [Wire.to_line]'s; every case writes one line over
   the buffer's 1 MiB keep limit among its others, so the give-back and the
   chunk boundaries are crossed every time.  The connection is a file, so
   nothing blocks and the bytes are read back whole. *)
let sent_bytes vs =
  let path = Filename.temp_file "vserve-send" ".lines" in
  let conn = Vserve.Conn.make (Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600) in
  List.iter (Vserve.Conn.send conn) vs;
  Vserve.Conn.close conn;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  text

let prop_send_is_to_line =
  QCheck2.Test.make ~name:"Conn.send writes exactly the bytes of Wire.to_line" ~count:30
    QCheck2.Gen.(
      triple (small_list gen_wire) (int_range 1 200_000) (small_list gen_wire))
    (fun (before, extra, after) ->
      let huge = W.List [ W.String (String.make ((1 lsl 20) + extra) 'z'); W.Int extra ] in
      let vs = before @ (huge :: after) in
      String.equal (sent_bytes vs) (String.concat "" (List.map W.to_line vs)))

(* The router decodes every worker answer: the minor words a warm [decode]
   of the mysql answer allocates, and the answer's length. *)
let decode_words decode =
  let line = P.encode_response ~id:1 (Lazy.force mysql_report) in
  decode line;
  let before = Gc.minor_words () in
  decode line;
  (Gc.minor_words () -. before, String.length line)

(* Decoding compares bytes in place and copies each string in runs, so it
   allocates the decoded tree and little else: 3.5 minor words per byte
   when every byte was boxed. *)
let test_decode_allocation () =
  let words, bytes = decode_words (fun line -> ignore (or_fail (W.of_string line))) in
  check Alcotest.bool
    (Printf.sprintf "%.0f minor words for %d bytes" words bytes)
    true
    (words < float_of_int bytes)

(* The whole decode parses each distinct constraint text once, not at
   every row that repeats it: 3.07 minor words per byte when every
   occurrence was parsed again. *)
let test_response_decode_allocation () =
  let words, bytes = decode_words (fun line -> ignore (or_fail (P.decode_response line))) in
  check Alcotest.bool
    (Printf.sprintf "%.0f minor words for %d bytes" words bytes)
    true
    (words < 1.5 *. float_of_int bytes)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let export_fixture ?(tweak = fun m -> m) dir key =
  let path = Reg.model_file ~dir ~key in
  or_fail (Violet.Pipeline.export_model (tweak (fixture_model ())) path);
  path

let test_registry_load_and_reject () =
  let dir = mk_tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = export_fixture dir "mini" in
  let reg = Reg.create ~dir () in
  (match Reg.refresh reg with
  | [ Reg.Loaded { key = "mini"; generation = 1 } ] -> ()
  | evs ->
    Alcotest.fail
      ("unexpected events: " ^ String.concat "; " (List.map Reg.event_to_string evs)));
  let e1 = Option.get (Reg.find reg "mini") in
  check Alcotest.string "target" "autocommit" e1.Reg.model.M.target;
  check Alcotest.bool "no previous on first load" true (e1.Reg.previous = None);
  (* corrupt the file the way a kill -9 mid-write leaves it: a truncated
     prefix whose checksum cannot match the envelope *)
  let good = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub good 0 (String.length good / 2)));
  (match Reg.refresh ~force:true reg with
  | [ Reg.Rejected { key = "mini"; _ } ] -> ()
  | evs ->
    Alcotest.fail
      ("expected a rejection: " ^ String.concat "; " (List.map Reg.event_to_string evs)));
  check Alcotest.int "one load failure" 1 (Reg.load_failures reg);
  (* the old generation keeps serving, untouched *)
  let e1' = Option.get (Reg.find reg "mini") in
  check Alcotest.int "generation still 1" 1 e1'.Reg.generation;
  check Alcotest.string "same digest" e1.Reg.digest e1'.Reg.digest;
  (* a bit-flip (right length, wrong checksum) is also rejected *)
  let flipped = Bytes.of_string good in
  let mid = String.length good - 1 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0xff));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc flipped);
  (match Reg.refresh ~force:true reg with
  | [ Reg.Rejected _ ] -> ()
  | _ -> Alcotest.fail "checksum mismatch must be rejected");
  check Alcotest.int "generation survives bit-flip" 1
    (Option.get (Reg.find reg "mini")).Reg.generation;
  (* a good replacement loads as generation 2, keeping generation 1 as
     [previous] for the mode-3a upgrade check *)
  let _ = export_fixture ~tweak:(fun m -> { m with M.threshold = 0.9 }) dir "mini" in
  (match Reg.refresh ~force:true reg with
  | [ Reg.Loaded { key = "mini"; generation = 2 } ] -> ()
  | _ -> Alcotest.fail "expected generation 2");
  let e2 = Option.get (Reg.find reg "mini") in
  check Alcotest.bool "previous retained" true (e2.Reg.previous <> None);
  check Alcotest.bool "threshold updated" true (e2.Reg.model.M.threshold = 0.9)

let test_registry_two_phase () =
  let dir = mk_tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = export_fixture dir "mini" in
  let reg = Reg.create ~dir () in
  ignore (Reg.refresh reg);
  (* commit without a stage is refused *)
  (match Reg.commit reg with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "commit without stage must be refused");
  (* stage a replacement: validated and parked, not serving *)
  let _ = export_fixture ~tweak:(fun m -> { m with M.threshold = 0.9 }) dir "mini" in
  (match Reg.stage reg with
  | [ ("mini", Ok _) ] -> ()
  | r ->
    Alcotest.fail
      (Printf.sprintf "unexpected stage results (%d entries)" (List.length r)));
  check Alcotest.bool "staged set parked" true (Reg.staged reg);
  check Alcotest.int "still serving generation 1" 1
    (Option.get (Reg.find reg "mini")).Reg.generation;
  (* commit flips to generation 2 atomically, retaining history *)
  (match Reg.commit reg with
  | Ok [ Reg.Loaded { key = "mini"; generation = 2 } ] -> ()
  | Ok evs ->
    Alcotest.fail
      ("unexpected commit events: " ^ String.concat "; " (List.map Reg.event_to_string evs))
  | Error e -> Alcotest.fail ("commit failed: " ^ e));
  let e = Option.get (Reg.find reg "mini") in
  check Alcotest.int "generation 2 serving" 2 e.Reg.generation;
  check Alcotest.bool "previous retained for mode 3a" true (e.Reg.previous <> None);
  check Alcotest.bool "staged set consumed" false (Reg.staged reg);
  (* a corrupt file poisons the whole stage round: nothing is parked and
     the serving generation is untouched *)
  let good = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub good 0 (String.length good / 2)));
  (match Reg.stage reg with
  | [ ("mini", Error _) ] -> ()
  | _ -> Alcotest.fail "corrupt file must fail the stage");
  check Alcotest.bool "nothing staged after corrupt round" false (Reg.staged reg);
  (match Reg.commit reg with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "commit after failed stage must be refused");
  check Alcotest.int "generation 2 still serving" 2
    (Option.get (Reg.find reg "mini")).Reg.generation

let test_registry_removal () =
  let dir = mk_tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = export_fixture dir "mini" in
  let reg = Reg.create ~dir () in
  ignore (Reg.refresh reg);
  Sys.remove path;
  (match Reg.refresh reg with
  | [ Reg.Removed "mini" ] -> ()
  | _ -> Alcotest.fail "expected removal");
  check Alcotest.bool "entry gone" true (Reg.find reg "mini" = None)

(* Two files, one corrupt and one changed: refresh is per file, stage is
   all or nothing, and both go through the same loader. *)
let test_registry_per_file_and_all_or_nothing () =
  let dir = mk_tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let a = export_fixture dir "a" in
  let _ = export_fixture dir "b" in
  let reg = Reg.create ~dir () in
  ignore (Reg.refresh reg);
  let gens () = List.map (fun k -> (Option.get (Reg.find reg k)).Reg.generation) [ "a"; "b" ] in
  let events evs = String.concat "; " (List.map Reg.event_to_string evs) in
  let good = In_channel.with_open_bin a In_channel.input_all in
  Out_channel.with_open_bin a (fun oc ->
      Out_channel.output_string oc (String.sub good 0 (String.length good / 2)));
  let _ = export_fixture ~tweak:(fun m -> { m with M.threshold = 0.9 }) dir "b" in
  (match Reg.refresh ~force:true reg with
  | [ Reg.Rejected { key = "a"; _ }; Reg.Loaded { key = "b"; generation = 2 } ] -> ()
  | evs -> Alcotest.fail ("refresh: " ^ events evs));
  check (Alcotest.list Alcotest.int) "refresh: a keeps serving, b moves on" [ 1; 2 ] (gens ());
  let failures = Reg.load_failures reg in
  (match Reg.stage reg with
  | [ ("a", Error _); ("b", Ok _) ] -> ()
  | _ -> Alcotest.fail "the corrupt file must fail only its own entry of the stage");
  check Alcotest.bool "a failed round parks nothing" false (Reg.staged reg);
  check Alcotest.int "the failure is counted" (failures + 1) (Reg.load_failures reg);
  check (Alcotest.list Alcotest.int) "stage changes no generation" [ 1; 2 ] (gens ());
  (* fixed: the next round stages, compiling only the file that changed *)
  let _ = export_fixture ~tweak:(fun m -> { m with M.threshold = 0.8 }) dir "a" in
  let compiles = Reg.compiles reg in
  (match Reg.stage reg with
  | [ ("a", Ok _); ("b", Ok _) ] -> ()
  | _ -> Alcotest.fail "the fixed directory must stage");
  check Alcotest.int "the unchanged file reuses its artifact" (compiles + 1) (Reg.compiles reg);
  check (Alcotest.list Alcotest.int) "staged, not yet serving" [ 1; 2 ] (gens ());
  (match Reg.commit reg with
  | Ok [ Reg.Loaded { key = "a"; generation = 2 } ] -> ()
  | Ok evs -> Alcotest.fail ("commit: " ^ events evs)
  | Error e -> Alcotest.fail e);
  check (Alcotest.list Alcotest.int) "commit loads the fixed file" [ 2; 2 ] (gens ());
  (* a file deleted before a stage is dropped by the next commit *)
  Sys.remove (Reg.model_file ~dir ~key:"b");
  (match Reg.stage reg with
  | [ ("a", Ok _) ] -> ()
  | _ -> Alcotest.fail "stage without b");
  check Alcotest.bool "b serves until the commit" true (Reg.find reg "b" <> None);
  (match Reg.commit reg with
  | Ok [ Reg.Removed "b" ] -> ()
  | Ok evs -> Alcotest.fail ("commit after delete: " ^ events evs)
  | Error e -> Alcotest.fail e);
  check Alcotest.bool "b dropped" true (Reg.find reg "b" = None)

let test_registry_rejects_format1 () =
  let dir = mk_tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  or_fail (Model_v1.export (fixture_model ()) (Reg.model_file ~dir ~key:"old"));
  let reg = Reg.create ~dir () in
  (match Reg.refresh reg with
  | [ Reg.Rejected { key = "old"; reason } ] ->
    check Alcotest.string "refresh reason" M.format1_error reason
  | evs ->
    Alcotest.fail
      ("expected a rejection: " ^ String.concat "; " (List.map Reg.event_to_string evs)));
  check Alcotest.bool "nothing served" true (Reg.find reg "old" = None);
  match Reg.stage reg with
  | [ ("old", Error reason) ] -> check Alcotest.string "stage reason" M.format1_error reason
  | _ -> Alcotest.fail "stage must refuse a format-1 file"

(* ------------------------------------------------------------------ *)
(* End to end: daemon answers == in-process checker answers             *)
(* ------------------------------------------------------------------ *)

let findings_bytes fs = W.to_string (P.findings_to_wire fs)

let expect_report = function
  | P.Report o -> o
  | P.Error_resp { code; message } ->
    Alcotest.fail
      (Printf.sprintf "daemon error %s: %s" (P.error_code_to_string code) message)
  | _ -> Alcotest.fail "expected a report"

let test_end_to_end () =
  (* the daemon is a forked child, as in deployment; fork is unsound once a
     domain exists *)
  if Vpar.Pool.spawned_domains () then Alcotest.skip ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = mk_tmpdir () in
  let srv = ref None in
  Fun.protect
    ~finally:(fun () ->
      (* a failed assertion must not leave the daemon running *)
      Option.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        !srv;
      rm_rf dir)
  @@ fun () ->
  let models_dir = Filename.concat dir "models" in
  Unix.mkdir models_dir 0o700;
  let model_path = export_fixture models_dir "mini" in
  let sock = Filename.concat dir "d.sock" in
  let opts =
    {
      (Server.default_options ~addr:(`Unix sock) ~models_dir) with
      Server.resolve_registry = (fun _ -> Some Fixtures.registry);
      refresh_every_s = 0.05;
    }
  in
  flush_all ();
  (match Unix.fork () with
  | 0 -> Unix._exit (match Server.run opts with Ok () -> 0 | Error _ -> 1 | exception _ -> 2)
  | pid -> srv := Some pid);
  let c = or_fail (Client.connect_retry (`Unix sock)) in
  (* the in-process reference runs on the very same model file the daemon
     serves (the deployment path: export once, check everywhere) *)
  let ref_model = or_fail (Violet.Pipeline.import_model model_path) in
  (* mode 2 byte-identity *)
  let local =
    or_fail
      (Checker.check_current ~model:ref_model ~registry:Fixtures.registry
         ~file:(Vchecker.Config_file.parse "") ())
  in
  let served = expect_report (or_fail (Client.call c (P.Check_current { key = "mini"; config = "" }))) in
  check Alcotest.string "mode 2 findings byte-identical"
    (findings_bytes local.Checker.findings)
    (findings_bytes served.P.findings);
  check Alcotest.bool "fixture default is flagged" true (served.P.findings <> []);
  check Alcotest.int "served by generation 1" 1 served.P.generation;
  check Alcotest.bool "not degraded" true (not served.P.degraded);
  (* mode 1 byte-identity *)
  let old_text = "autocommit = OFF\n" in
  let new_text = "autocommit = ON\nflush_at_trx_commit = 1\n" in
  let local =
    or_fail
      (Checker.check_update ~model:ref_model ~registry:Fixtures.registry
         ~old_file:(Vchecker.Config_file.parse old_text)
         ~new_file:(Vchecker.Config_file.parse new_text) ())
  in
  let served =
    expect_report
      (or_fail
         (Client.call c
            (P.Check_update { key = "mini"; old_config = old_text; new_config = new_text })))
  in
  check Alcotest.string "mode 1 findings byte-identical"
    (findings_bytes local.Checker.findings)
    (findings_bytes served.P.findings);
  (* mode 3b byte-identity *)
  let old_workload = [ ("sql_command", 0) ] and new_workload = [ ("sql_command", 1) ] in
  let local = Checker.check_workload_change ~model:ref_model ~old_workload ~new_workload () in
  let served =
    expect_report
      (or_fail
         (Client.call c
            (P.Check_upgrade { key = "mini"; workloads = Some (old_workload, new_workload) })))
  in
  check Alcotest.string "mode 3b findings byte-identical"
    (findings_bytes local.Checker.findings)
    (findings_bytes served.P.findings);
  check Alcotest.bool "workload shift flagged over the wire" true (served.P.findings <> []);
  (* mode 3a needs a previous generation: none yet *)
  (match or_fail (Client.call c (P.Check_upgrade { key = "mini"; workloads = None })) with
  | P.Error_resp { code = P.Check_failed; _ } -> ()
  | _ -> Alcotest.fail "mode 3a without history must fail");
  (* error paths *)
  (match or_fail (Client.call c (P.Check_current { key = "nope"; config = "" })) with
  | P.Error_resp { code = P.Unknown_model; _ } -> ()
  | _ -> Alcotest.fail "unknown key must be unknown-model");
  (match P.decode_response (or_fail (Client.call_raw c "{not json")) with
  | Ok (_, P.Error_resp { code = P.Bad_request; _ }) -> ()
  | _ -> Alcotest.fail "garbage line must be bad-request");
  (* health before reload *)
  (match or_fail (Client.call c P.Health) with
  | P.Health_info { status = "ok"; models = [ m ] } ->
    check Alcotest.string "health key" "mini" m.P.mi_key;
    check Alcotest.int "health generation" 1 m.P.mi_generation
  | _ -> Alcotest.fail "expected healthy with one model");
  (* hot reload: replace the model file, the daemon picks up generation 2
     without restarting *)
  let _ = export_fixture ~tweak:(fun m -> { m with M.threshold = 0.9 }) models_dir "mini" in
  let deadline = Unix.gettimeofday () +. 10. in
  let rec await_gen2 () =
    let served =
      expect_report (or_fail (Client.call c (P.Check_current { key = "mini"; config = "" })))
    in
    if served.P.generation >= 2 then served
    else if Unix.gettimeofday () > deadline then Alcotest.fail "hot reload never happened"
    else begin
      Unix.sleepf 0.05;
      await_gen2 ()
    end
  in
  let served = await_gen2 () in
  check Alcotest.int "hot-reloaded generation" 2 served.P.generation;
  (* with history, mode 3a answers (same rows, so no findings) *)
  let served3a =
    expect_report (or_fail (Client.call c (P.Check_upgrade { key = "mini"; workloads = None })))
  in
  check Alcotest.int "mode 3a clean upgrade" 0 (List.length served3a.P.findings);
  (* corrupt replacement: rejected, generation 2 keeps serving *)
  let good = In_channel.with_open_bin model_path In_channel.input_all in
  Out_channel.with_open_bin model_path (fun oc ->
      Out_channel.output_string oc (String.sub good 0 (String.length good / 2)));
  Unix.sleepf 0.3;
  let served =
    expect_report (or_fail (Client.call c (P.Check_current { key = "mini"; config = "" })))
  in
  check Alcotest.int "old generation live after corrupt swap" 2 served.P.generation;
  (* stats reflect everything above *)
  (match or_fail (Client.call c P.Stats) with
  | P.Stats_info w ->
    let int_field name =
      match Option.bind (W.member name w) W.to_int with
      | Some n -> n
      | None -> Alcotest.fail ("stats missing " ^ name)
    in
    check Alcotest.bool "requests counted" true (int_field "requests" >= 6);
    check Alcotest.bool "reloads counted" true (int_field "model_reloads" >= 2);
    check Alcotest.bool "load failure counted" true (int_field "model_load_failures" >= 1);
    check Alcotest.bool "compiles counted" true (int_field "model_compiles" >= 1);
    (match Option.bind (W.member "latency" w) (W.member "observations") with
    | Some (W.Int n) when n > 0 -> ()
    | _ -> Alcotest.fail "latency histogram must have observations")
  | _ -> Alcotest.fail "expected stats");
  (* clean shutdown *)
  (match or_fail (Client.call c P.Shutdown) with
  | P.Bye -> ()
  | _ -> Alcotest.fail "expected bye");
  Client.close c;
  let status = snd (Unix.waitpid [] (Option.get !srv)) in
  srv := None;
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "daemon exited with status %d" n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Alcotest.failf "daemon stopped by signal %d" n);
  check Alcotest.bool "socket file removed" false (Sys.file_exists sock)

(* Two servers in one process, one after the other, each serving key "mini"
   at generation 2 after a hot reload — a clean upgrade on the first, a
   regression on the second.  Each must answer mode 3a from its own models,
   not from a report the other memoized under the same (key, generation). *)
let test_upgrade_memo_per_server () =
  if Vpar.Pool.spawned_domains () then Alcotest.skip ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = mk_tmpdir () in
  let srv = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        !srv;
      rm_rf dir)
  @@ fun () ->
  let slow_env = { Vruntime.Hw_env.hdd_server with Vruntime.Hw_env.fsync_us = 40000. } in
  let regressed =
    (Violet.Pipeline.analyze_exn
       ~opts:{ Violet.Pipeline.default_options with Violet.Pipeline.env = slow_env }
       Fixtures.target "autocommit")
      .Violet.Pipeline.model
  in
  let servers = [ ("clean", fun m -> { m with M.threshold = 0.9 }); ("regressed", fun _ -> regressed) ] in
  let addr name = `Unix (Filename.concat dir (name ^ ".sock")) in
  let models name = Filename.concat dir name in
  List.iter
    (fun (name, _) ->
      Unix.mkdir (models name) 0o700;
      ignore (export_fixture (models name) "mini"))
    servers;
  flush_all ();
  (match Unix.fork () with
  | 0 ->
    List.iter
      (fun (name, _) ->
        ignore
          (Server.run
             {
               (Server.default_options ~addr:(addr name) ~models_dir:(models name)) with
               Server.resolve_registry = (fun _ -> Some Fixtures.registry);
               refresh_every_s = 0.05;
             }))
      servers;
    Unix._exit 0
  | pid -> srv := Some pid);
  let upgrade_findings (name, tweak) =
    let c = or_fail (Client.connect_retry ~deadline_s:10. (addr name)) in
    (* health is answered after the initial load: replace the file only then *)
    ignore (Client.call c P.Health);
    ignore (export_fixture ~tweak (models name) "mini");
    let deadline = Unix.gettimeofday () +. 10. in
    let rec await_gen2 () =
      match Client.call c (P.Check_upgrade { key = "mini"; workloads = None }) with
      | Ok (P.Report o) when o.P.generation >= 2 -> o.P.findings
      | _ when Unix.gettimeofday () > deadline -> Alcotest.fail (name ^ ": hot reload never happened")
      | _ ->
        Unix.sleepf 0.05;
        await_gen2 ()
    in
    let findings = await_gen2 () in
    ignore (Client.call c P.Shutdown);
    Client.close c;
    findings
  in
  let clean = upgrade_findings (List.nth servers 0) in
  let regression = upgrade_findings (List.nth servers 1) in
  check Alcotest.int "first server: clean upgrade" 0 (List.length clean);
  check Alcotest.bool "second server: its own regression" true (regression <> [])

(* ------------------------------------------------------------------ *)
(* Misbehaving peers: one connection cannot stall the daemon           *)
(* ------------------------------------------------------------------ *)

(* Fork a daemon serving the fixture as "mini" under [tweak]ed options, hand
   [f] a client it has answered, a function opening raw connections to it
   and the model file it serves, and kill the daemon afterwards. *)
let with_daemon ?(tweak = fun o -> o) f =
  if Vpar.Pool.spawned_domains () then Alcotest.skip ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = mk_tmpdir () in
  let srv = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        !srv;
      rm_rf dir)
  @@ fun () ->
  let models_dir = Filename.concat dir "models" in
  Unix.mkdir models_dir 0o700;
  let model_path = export_fixture models_dir "mini" in
  let sock = Filename.concat dir "d.sock" in
  let opts =
    tweak
      {
        (Server.default_options ~addr:(`Unix sock) ~models_dir) with
        Server.resolve_registry = (fun _ -> Some Fixtures.registry);
      }
  in
  flush_all ();
  (match Unix.fork () with
  | 0 -> Unix._exit (match Server.run opts with Ok () -> 0 | Error _ -> 1 | exception _ -> 2)
  | pid -> srv := Some pid);
  let c = or_fail (Client.connect_retry (`Unix sock)) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.call ~timeout_s:10. c P.Health with
  | Ok (P.Health_info { models = [ _ ]; _ }) -> ()
  | _ -> Alcotest.fail "daemon never came up with the model");
  let raw () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    fd
  in
  f c raw model_path

(* [c] is still answered, within the send timeout and some slack *)
let answered c =
  match Client.call ~timeout_s:(Vserve.Conn.send_timeout_s +. 4.) c P.Health with
  | Ok (P.Health_info _) -> ()
  | Ok _ -> Alcotest.fail "expected a health answer"
  | Error e -> Alcotest.fail ("second client not answered: " ^ e)

(* A client that pipelines requests and never reads fills its socket; the
   daemon's write to it must time out and drop it rather than block every
   other client behind it. *)
let test_nonreading_client_dropped () =
  with_daemon @@ fun c raw _ ->
  let bad = raw () in
  Fun.protect ~finally:(fun () -> Unix.close bad) @@ fun () ->
  Unix.set_nonblock bad;
  let line =
    P.encode_request ~id:1 (P.Check_current { key = "mini"; config = "" }) ^ "\n"
  in
  let data = String.concat "" (List.init 4_000 (fun _ -> line)) in
  (* write until the daemon stops reading, never blocking the test *)
  let rec send pos =
    if pos < String.length data then
      match Unix.write_substring bad data pos (String.length data - pos) with
      | k -> send (pos + k)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.ECONNRESET), _, _)
        -> ()
  in
  send 0;
  (* let the daemon take in what it was sent and stall on its replies *)
  Unix.sleepf 0.5;
  answered c;
  match Client.call ~timeout_s:5. c P.Stats with
  | Ok (P.Stats_info w) ->
    check Alcotest.bool "the dropped response is counted" true
      (Option.value ~default:0 (Option.bind (W.member "write_failed" w) W.to_int) >= 1)
  | _ -> Alcotest.fail "expected stats"

(* A line that never ends is dropped at the cap, with its connection; the
   daemon keeps serving everyone else. *)
let test_overlong_line_dropped () =
  with_daemon @@ fun c raw _ ->
  let bad = raw () in
  Fun.protect ~finally:(fun () -> Unix.close bad) @@ fun () ->
  let block = String.make 65_536 'x' in
  let rec send left =
    if left > 0 then
      match Unix.write_substring bad block 0 (String.length block) with
      | k -> send (left - k)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  send (Vserve.Conn.max_line_bytes + (4 * String.length block));
  (match Unix.select [ bad ] [] [] 5. with
  | [], _, _ -> Alcotest.fail "over-cap line did not close its connection"
  | _ -> (
    match Unix.read bad (Bytes.create 16) 0 16 with
    | 0 -> ()
    | _ -> Alcotest.fail "expected end of file on the dropped connection"
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()));
  answered c

(* ------------------------------------------------------------------ *)
(* The queue: checks admitted in one read                              *)
(* ------------------------------------------------------------------ *)

(* Write [lines] to a fresh raw connection in one [write], so the daemon
   admits them in one read, and return the first [n] answers decoded, in
   arrival order. *)
let exchange raw lines n =
  let fd = raw () in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let data = String.concat "" lines in
  check Alcotest.int "one write" (String.length data)
    (Unix.write_substring fd data 0 (String.length data));
  let pending = Buffer.create 65_536 and chunk = Bytes.create 65_536 in
  let answers = ref [] and got = ref 0 in
  let deadline = Unix.gettimeofday () +. 20. in
  while !got < n do
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then Alcotest.failf "%d of %d answers before the timeout" !got n;
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> ()
    | _ -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Alcotest.failf "connection closed after %d of %d answers" !got n
      | k ->
        Buffer.add_subbytes pending chunk 0 k;
        let text = Buffer.contents pending in
        let parts = String.split_on_char '\n' text in
        let rec take = function
          | [ rest ] ->
            Buffer.clear pending;
            Buffer.add_string pending rest
          | line :: rest ->
            answers := or_fail (P.decode_response line) :: !answers;
            incr got;
            take rest
          | [] -> ()
        in
        take parts)
  done;
  List.rev !answers

(* Repeats, distinct checks of two verbs and an unknown key, written in
   one piece with a health line behind them: every answer carries its own
   id, and every report is the in-process checker's on the same model
   file, run in full for its own request. *)
let test_queued_checks_in_one_read () =
  with_daemon @@ fun _ raw model_path ->
  let model = or_fail (Violet.Pipeline.import_model model_path) in
  let parse = Vchecker.Config_file.parse in
  let current config =
    ( P.Check_current { key = "mini"; config },
      Some
        (or_fail
           (Checker.check_current ~model ~registry:Fixtures.registry ~file:(parse config) ()))
    )
  in
  let update old_config new_config =
    ( P.Check_update { key = "mini"; old_config; new_config },
      Some
        (or_fail
           (Checker.check_update ~model ~registry:Fixtures.registry
              ~old_file:(parse old_config) ~new_file:(parse new_config) ())) )
  in
  let checks =
    [|
      current "";
      current "";
      current "autocommit = OFF\n";
      current "";
      update "autocommit = OFF\n" "autocommit = ON\nflush_at_trx_commit = 1\n";
      current "flush_at_trx_commit = 2\n";
      (P.Check_current { key = "nope"; config = "" }, None);
      update "" "autocommit = OFF\n";
      current "binlog_format = MIXED\n";
      update "autocommit = OFF\n" "autocommit = ON\nflush_at_trx_commit = 1\n";
    |]
  in
  let n = Array.length checks in
  let lines =
    Array.to_list (Array.mapi (fun id (req, _) -> P.encode_request ~id req ^ "\n") checks)
    @ [ P.encode_request ~id:n P.Health ^ "\n" ]
  in
  let seen = Array.make (n + 1) false in
  List.iter
    (fun (id, resp) ->
      let id = match id with Some id -> id | None -> Alcotest.fail "an answer without an id" in
      if id < 0 || id > n || seen.(id) then Alcotest.failf "unexpected answer id %d" id;
      seen.(id) <- true;
      if id = n then
        match resp with
        | P.Health_info { models = [ m ]; _ } -> check Alcotest.string "health key" "mini" m.P.mi_key
        | _ -> Alcotest.fail "expected the health answer"
      else
        match (snd checks.(id), resp) with
        | None, P.Error_resp { code = P.Unknown_model; _ } -> ()
        | None, _ -> Alcotest.failf "request %d: an unknown key must be unknown-model" id
        | Some local, resp ->
          let o = expect_report resp in
          check Alcotest.string
            (Printf.sprintf "request %d findings byte-identical" id)
            (findings_bytes local.Checker.findings)
            (findings_bytes o.P.findings);
          check Alcotest.bool (Printf.sprintf "request %d not batched" id) false o.P.batched;
          check Alcotest.bool (Printf.sprintf "request %d not coalesced" id) false o.P.coalesced;
          check Alcotest.bool (Printf.sprintf "request %d not degraded" id) false o.P.degraded)
    (exchange raw lines (n + 1));
  check Alcotest.bool "every request answered" true (Array.for_all Fun.id seen)

(* A 1 µs deadline: every check admitted in the read but the first has
   waited out its budget behind another check by the time it runs, so it
   is served the degraded widening, and [stats] counts each one. *)
let test_deadline_shedding () =
  with_daemon ~tweak:(fun o -> { o with Server.request_deadline_s = Some 1e-6 })
  @@ fun c raw _ ->
  let n = 8 in
  let lines =
    List.init n (fun id ->
        P.encode_request ~id (P.Check_current { key = "mini"; config = "" }) ^ "\n")
  in
  let degraded =
    List.fold_left
      (fun acc (_, resp) -> if (expect_report resp).P.degraded then acc + 1 else acc)
      0 (exchange raw lines n)
  in
  check Alcotest.bool
    (Printf.sprintf "at least %d of %d degraded (read %d)" (n - 1) n degraded)
    true (degraded >= n - 1);
  match Client.call ~timeout_s:10. c P.Stats with
  | Ok (P.Stats_info w) ->
    check Alcotest.(option int) "shed_deadline counts the degraded answers" (Some degraded)
      (Option.bind (W.member "shed_deadline" w) W.to_int)
  | _ -> Alcotest.fail "expected stats"

let tests =
  [
    qt prop_wire_roundtrip;
    qt prop_request_roundtrip;
    qt prop_response_roundtrip;
    qt prop_latency_merge_through_wire;
    qt prop_send_is_to_line;
    tc "latency percentiles read bucket bounds" test_latency_percentiles;
    tc "non-ASCII finding without fast row" test_nonascii_and_no_fast_row;
    tc "registry loads, rejects corruption, keeps serving" test_registry_load_and_reject;
    tc "registry two-phase stage and commit" test_registry_two_phase;
    tc "registry drops removed files" test_registry_removal;
    tc "registry rejects format 1" test_registry_rejects_format1;
    tc "end-to-end daemon matches in-process checker" test_end_to_end;
    tc "each server keeps its own upgrade memo" test_upgrade_memo_per_server;
    tc "a client that never reads is dropped" test_nonreading_client_dropped;
    tc "an over-cap line closes its connection" test_overlong_line_dropped;
    tc "queued checks in one read each answered in full" test_queued_checks_in_one_read;
    tc "deadline shedding degrades and counts queued checks" test_deadline_shedding;
    tc "wire escapes every control byte" test_wire_escapes;
    tc "line buffer reuse keeps every line exact" test_line_buffer_reuse;
    tc "registry: per-file refresh, all-or-nothing stage"
      test_registry_per_file_and_all_or_nothing;
    tc "decoding an answer allocates under a word per byte" test_decode_allocation;
    tc "decoding a response allocates under 1.5 words per byte" test_response_decode_allocation;
  ]
