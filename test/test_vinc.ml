(* Tests for vinc: the persistent cross-run solver cache's on-disk format
   (QCheck round-trip through Cache_store plus truncation/bit-flip
   rejection regressions), the IR differ's content keys, the splice
   engine's reuse/identity contract, and the pipeline's warm-cache path. *)

module E = Vsmt.Expr
module Cache = Vsched.Solver_cache
module Store = Vsched.Cache_store
module P = Violet.Pipeline
module G = Vfuzz.Genspec
module B = Vinc.Baseline

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let var name lo hi = E.{ name; dom = Vsmt.Dom.int_range lo hi; origin = Config }
let qa = var "qa" 0 7
let qb = var "qb" 0 7

let stamp = "qa=0..7;qb=0..7"

let feasible cache cs = ignore (Cache.is_feasible cache ~max_nodes:4_000 cs)

let primed d =
  let c = Cache.create () in
  Cache.prime c d;
  c

let temp_path () =
  let p = Filename.temp_file "vinc_cache" ".vcache" in
  Sys.remove p;
  p

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      try Sys.rmdir path with Sys_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let temp_dir name =
  let d = Filename.concat (Filename.get_temp_dir_name ()) ("vinc_test_" ^ name) in
  rm_rf d;
  d

(* ------------------------------------------------------------------ *)
(* Cache_store: disk round-trip                                        *)
(* ------------------------------------------------------------------ *)

let atom_gen =
  QCheck2.Gen.(
    let open E in
    let v = oneofl [ qa; qb ] in
    let cmp = oneofl [ ( ==. ); ( <>. ); ( <. ); ( >. ); ( <=. ); ( >=. ) ] in
    v >>= fun x ->
    cmp >>= fun op ->
    int_range 0 8 >>= fun k -> return (op (of_var x) (const k)))

let queries_gen = QCheck2.Gen.(list_size (int_range 1 8) (list_size (int_range 1 4) atom_gen))

let prop_store_roundtrip =
  QCheck2.Test.make ~name:"dump/prime round-trips through the on-disk format" ~count:60
    queries_gen (fun queries ->
      let c1 = Cache.create () in
      let before = List.map (Cache.check_model c1 ~max_nodes:4_000) queries in
      List.iter (feasible c1) queries;
      let path = temp_path () in
      let ok =
        match Store.save ~path ~stamp (Cache.dump c1) with
        | Error e -> failwith (Vresilience.Checkpoint.error_to_string e)
        | Ok () -> (
          match Store.load ~path ~stamp with
          | Error e -> failwith (Vresilience.Checkpoint.error_to_string e)
          | Ok d ->
            (* the primed cache must answer every query exactly as the
               original did, from memo entries alone (no new solves; the
               primed counters start at the dump's totals, so compare
               the miss delta) *)
            let c2 = primed d in
            let misses0 = (Cache.stats c2).Cache.misses in
            let after = List.map (Cache.check_model c2 ~max_nodes:4_000) queries in
            let s = Cache.stats c2 in
            Cache.dump_entries d = Cache.dump_entries (Cache.dump c1)
            && before = after
            && s.Cache.misses = misses0)
      in
      Sys.remove path;
      ok)

let populated_dump () =
  let c = Cache.create () in
  let sets =
    E.
      [
        [ of_var qa ==. const 1 ];
        [ of_var qa >. const 2; of_var qa <. const 6 ];
        [ of_var qb ==. const 3 ];
        [ of_var qb >. const 5; of_var qb <. const 3 ];
        [ of_var qa ==. const 1; of_var qb ==. const 3 ];
      ]
  in
  List.iter
    (fun cs ->
      ignore (Cache.check_model c ~max_nodes:4_000 cs);
      feasible c cs)
    sets;
  Cache.dump c

(* regression: a file cut short at any point must come back as a typed
   error, never a crash or a silently half-primed cache *)
let test_truncated_rejected () =
  let path = temp_path () in
  (match Store.save ~path ~stamp (populated_dump ()) with
  | Ok () -> ()
  | Error e -> failwith (Vresilience.Checkpoint.error_to_string e));
  let full = In_channel.with_open_bin path In_channel.input_all in
  List.iter
    (fun keep ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub full 0 keep));
      match Store.load ~path ~stamp with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "load accepted a file truncated to %d bytes" keep)
    [ 0; 4; String.length full / 2; String.length full - 1 ];
  Sys.remove path

(* regression: a flipped payload byte must fail the envelope checksum *)
let test_bitflip_rejected () =
  let path = temp_path () in
  (match Store.save ~path ~stamp (populated_dump ()) with
  | Ok () -> ()
  | Error e -> failwith (Vresilience.Checkpoint.error_to_string e));
  let full = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let i = Bytes.length full - 7 in
  Bytes.set full i (Char.chr (Char.code (Bytes.get full i) lxor 0x40));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc full);
  (match Store.load ~path ~stamp with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "load accepted a bit-flipped file");
  (* the pipeline-facing wrapper degrades to a cold start the same way *)
  (match Store.load_filtered ~path ~stamp ~dirty:[] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "load_filtered accepted a bit-flipped file");
  Sys.remove path

(* a verdict holds only under the domains it was proved over: a file
   saved under one stamp must not load under another *)
let test_stamp_mismatch_rejected () =
  let path = temp_path () in
  (match Store.save ~path ~stamp (populated_dump ()) with
  | Ok () -> ()
  | Error e -> failwith (Vresilience.Checkpoint.error_to_string e));
  (match Store.load ~path ~stamp:"qa=0..3;qb=0..7" with
  | Error (Vresilience.Checkpoint.Kind_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Vresilience.Checkpoint.error_to_string e)
  | Ok _ -> Alcotest.fail "load accepted a file saved under another stamp");
  (match Store.load ~path ~stamp with
  | Ok _ -> ()
  | Error e -> failwith (Vresilience.Checkpoint.error_to_string e));
  Sys.remove path

let test_filter_dump () =
  let d = populated_dump () in
  let all = Cache.dump_entries d in
  check Alcotest.bool "dump has entries" true (all > 0);
  (* counters zero even with nothing dirty: a cross-run dump must not carry
     last run's totals into the next run's stats *)
  let clean = Cache.filter_dump d ~dirty:[] in
  check Alcotest.int "no entries dropped when nothing is dirty" all (Cache.dump_entries clean);
  let s = Cache.stats (primed clean) in
  check Alcotest.int "counters zeroed" 0 (s.Cache.lookups + s.Cache.misses + Cache.hits s);
  (* footprint scoping: entries mentioning the dirty symbol are dropped,
     entries on the untouched symbol survive *)
  let filtered = Cache.filter_dump d ~dirty:[ "qa" ] in
  let kept = Cache.dump_entries filtered in
  check Alcotest.bool "dirty entries dropped" true (kept < all);
  check Alcotest.bool "clean entries kept" true (kept > 0);
  let c = primed filtered in
  ignore (Cache.check_model c ~max_nodes:4_000 E.[ of_var qb ==. const 3 ]);
  ignore (Cache.check_model c ~max_nodes:4_000 E.[ of_var qa ==. const 1 ]);
  let s = Cache.stats c in
  check Alcotest.int "qb replays from the filtered dump" 1 s.Cache.exact_hits;
  check Alcotest.int "qa re-solves" 1 s.Cache.misses

(* ------------------------------------------------------------------ *)
(* A tiny spec family for differ and splice tests                      *)
(* ------------------------------------------------------------------ *)

(* root gates helper_i behind opt_i (default off), so the slice for opt_i
   dynamically covers only its own helper — the shape that makes a
   one-function diff selective *)
let n_params = 4

let spec_with ~tweak =
  let helper i =
    {
      G.f_name = Printf.sprintf "helper%d" i;
      f_body =
        [
          G.S_op G.O_cache_lookup;
          G.S_op (G.O_compute (if i = tweak then 97 else 8 + i));
          G.S_op (G.O_buffered_write 512);
        ];
    }
  in
  let root =
    {
      G.f_name = "root";
      f_body =
        List.init n_params (fun i ->
            G.S_if
              ( [ G.A_cfg (Printf.sprintf "opt%d" i, E.Eq, 1) ],
                [ G.S_call (Printf.sprintf "helper%d" i) ],
                [ G.S_op (G.O_compute 4) ] ));
    }
  in
  let t =
    {
      G.g_name = "vinc-fixture";
      g_seed = 0;
      g_cparams =
        List.init n_params (fun i ->
            { G.c_name = Printf.sprintf "opt%d" i; c_kind = G.C_bool; c_default = 0 });
      g_wparams = [];
      g_funcs = root :: List.init n_params helper;
      g_plants = [];
      g_decoys = [];
      g_trail = [];
    }
  in
  match G.validate t with Ok () -> t | Error e -> failwith e

let v1 = spec_with ~tweak:(-1)
let v2 = spec_with ~tweak:2 (* helper2's body changes, nothing else *)

let opts =
  {
    P.default_options with
    P.budget = Vresilience.Budget.with_max_states Vresilience.Budget.default 256;
    cache_dir = None;
  }

(* ------------------------------------------------------------------ *)
(* Irdiff                                                              *)
(* ------------------------------------------------------------------ *)

let test_irdiff_classification () =
  let p1 = (G.to_target v1).P.program in
  let p2 = (G.to_target v2).P.program in
  let d = Vinc.Irdiff.diff_programs ~old_program:p1 p2 in
  check (Alcotest.list Alcotest.string) "modified" [ "helper2" ] d.Vinc.Irdiff.modified;
  check (Alcotest.list Alcotest.string) "added" [] d.Vinc.Irdiff.added;
  check (Alcotest.list Alcotest.string) "removed" [] d.Vinc.Irdiff.removed;
  check Alcotest.bool "everything else unchanged" true
    (List.length d.Vinc.Irdiff.unchanged = List.length p1.Vir.Ast.funcs - 1);
  check (Alcotest.list Alcotest.string) "dirty functions" [ "helper2" ]
    (Vinc.Irdiff.dirty_functions d);
  (* a self-diff is fully unchanged *)
  let self = Vinc.Irdiff.diff_programs ~old_program:p1 p1 in
  check Alcotest.bool "self-diff clean" true
    (self.Vinc.Irdiff.modified = [] && self.Vinc.Irdiff.added = [] && self.Vinc.Irdiff.removed = [])

(* content keys must not move when synthetic addresses shift wholesale:
   growing an early function re-addresses everything after it, but only
   the grown function's key may change *)
let test_irdiff_addr_insensitive () =
  let grown =
    {
      v1 with
      G.g_funcs =
        List.map
          (fun (f : G.fspec) ->
            if f.G.f_name = "root" then
              { f with G.f_body = (G.S_op (G.O_malloc 64) :: f.G.f_body) }
            else f)
          v1.G.g_funcs;
    }
  in
  let d =
    Vinc.Irdiff.diff_programs ~old_program:(G.to_target v1).P.program
      (G.to_target grown).P.program
  in
  check (Alcotest.list Alcotest.string) "only the grown function differs" [ "root" ]
    d.Vinc.Irdiff.modified

let test_dirty_symbols () =
  let p2 = (G.to_target v2).P.program in
  let d = Vinc.Irdiff.diff_programs ~old_program:(G.to_target v1).P.program p2 in
  (* helper2 reads no config directly; its dirty symbols are whatever the
     lowering threads through it, and must at least not mention the
     parameters whose code is untouched *)
  let syms = Vinc.Irdiff.dirty_symbols d p2 in
  check Alcotest.bool "untouched parameters not dirtied" true
    (not (List.mem "opt0" syms) && not (List.mem "opt1" syms) && not (List.mem "opt3" syms))

(* ------------------------------------------------------------------ *)
(* Baseline + splice                                                   *)
(* ------------------------------------------------------------------ *)

let test_splice_reuse_and_identity () =
  let old_t = G.to_target v1 and new_t = G.to_target v2 in
  let base = temp_dir "base" and out = temp_dir "spliced" and scratch = temp_dir "scratch" in
  let mf_old, _ =
    match B.build ~opts ~dir:base old_t with Ok r -> r | Error e -> failwith e
  in
  let r =
    match Vinc.Splice.run ~opts ~baseline:base ~out new_t with
    | Ok r -> r
    | Error e -> failwith e
  in
  check Alcotest.(list string) "only opt2's slice re-explored" [ "opt2" ]
    (List.map fst r.Vinc.Splice.sp_reexplored);
  check Alcotest.int "every other slice carried" (n_params - 1)
    (List.length r.Vinc.Splice.sp_reused);
  check Alcotest.bool "no conservative fallback" true (r.Vinc.Splice.sp_conservative = None);
  (* spliced output must be indistinguishable from scratch by content... *)
  let scratch_mf, _ =
    match B.build ~opts ~dir:scratch new_t with Ok r -> r | Error e -> failwith e
  in
  let digests (mf : B.t) =
    List.map (fun (s : B.slice) -> (s.B.sl_param, s.B.sl_digest)) mf.B.mf_slices
  in
  check
    Alcotest.(list (pair string string))
    "spliced models byte-identical to scratch" (digests scratch_mf)
    (digests r.Vinc.Splice.sp_baseline);
  (* ...except by provenance, which records the splice and its parent *)
  (match r.Vinc.Splice.sp_baseline.B.mf_provenance with
  | B.Spliced { parent; reused; reexplored } ->
    check Alcotest.string "parent is the donor baseline" (B.digest mf_old) parent;
    check Alcotest.int "reused recorded" (n_params - 1) reused;
    check Alcotest.int "reexplored recorded" 1 reexplored
  | B.Scratch -> Alcotest.fail "spliced manifest lost its provenance");
  check Alcotest.bool "scratch manifest says scratch" true
    (scratch_mf.B.mf_provenance = B.Scratch);
  (* carried slices are marked, and the manifest on disk round-trips *)
  let reloaded = match B.load ~dir:out with Ok t -> t | Error e -> failwith e in
  List.iter
    (fun (s : B.slice) ->
      let expect = if s.B.sl_param = "opt2" then B.Fresh_slice else B.Carried in
      check Alcotest.bool (s.B.sl_param ^ " origin") true (s.B.sl_origin = expect))
    reloaded.B.mf_slices;
  (* upgrade findings through the spliced baseline equal the scratch path *)
  let findings dir =
    match Vinc.Splice.check_upgrade ~old_dir:base ~new_dir:dir with
    | Error e -> failwith e
    | Ok rs -> List.map (fun (p, (r : Vchecker.Checker.report)) -> (p, r.Vchecker.Checker.findings)) rs
  in
  check Alcotest.bool "upgrade verdicts identical" true (findings out = findings scratch);
  List.iter rm_rf [ base; out; scratch ]

(* A registry-only change: opt1 becomes an int gated on [opt1 >= 1 &&
   opt1 <> 1], so the helper1 path is infeasible over 0..1 and feasible
   over 0..3.  Widening the range moves exploration while every function
   key stays put.  The old baseline leaves a persistent solver cache
   behind, whose key for that guard is the same under both ranges; the
   splice must still land on the scratch rebuild's models. *)
let with_opt1_range hi =
  let gate =
    G.S_if
      ( [ G.A_cfg ("opt1", E.Ge, 1); G.A_cfg ("opt1", E.Ne, 1) ],
        [ G.S_call "helper1" ],
        [ G.S_op (G.O_compute 4) ] )
  in
  let t =
    {
      v1 with
      G.g_cparams =
        List.map
          (fun (c : G.cparam) ->
            if c.G.c_name = "opt1" then { c with G.c_kind = G.C_int { lo = 0; hi } } else c)
          v1.G.g_cparams;
      g_funcs =
        List.map
          (fun (f : G.fspec) ->
            if f.G.f_name = "root" then
              { f with G.f_body = List.mapi (fun i st -> if i = 1 then gate else st) f.G.f_body }
            else f)
          v1.G.g_funcs;
    }
  in
  match G.validate t with Ok () -> t | Error e -> failwith e

let test_splice_registry_only_change () =
  let old_t = G.to_target (with_opt1_range 1) and new_t = G.to_target (with_opt1_range 3) in
  let base = temp_dir "reg_base" and out = temp_dir "reg_out" in
  let scratch = temp_dir "reg_scratch" and cache = temp_dir "reg_cache" in
  let copts = { opts with P.cache_dir = Some cache } in
  let mf_old, _ = match B.build ~opts:copts ~dir:base old_t with Ok r -> r | Error e -> failwith e in
  let scratch_mf, _ =
    match B.build ~opts ~dir:scratch new_t with Ok r -> r | Error e -> failwith e
  in
  let r =
    match Vinc.Splice.run ~opts:copts ~baseline:base ~out new_t with
    | Ok r -> r
    | Error e -> failwith e
  in
  let digests (mf : B.t) =
    List.map (fun (s : B.slice) -> (s.B.sl_param, s.B.sl_digest)) mf.B.mf_slices
  in
  check Alcotest.(list string) "no function changed" [] r.Vinc.Splice.sp_dirty_functions;
  check Alcotest.bool "the widened range changes opt1's model" true
    (List.assoc "opt1" (digests mf_old) <> List.assoc "opt1" (digests scratch_mf));
  check
    Alcotest.(option string)
    "whole baseline re-explored" (Some "registry entry changed") r.Vinc.Splice.sp_conservative;
  check
    Alcotest.(list (pair string string))
    "spliced models byte-identical to scratch" (digests scratch_mf)
    (digests r.Vinc.Splice.sp_baseline);
  List.iter rm_rf [ base; out; scratch; cache ]

let test_splice_conservative_on_options_change () =
  let old_t = G.to_target v1 in
  let base = temp_dir "copts_base" and out = temp_dir "copts_out" in
  (match B.build ~opts ~dir:base old_t with Ok _ -> () | Error e -> failwith e);
  let other = { opts with P.threshold = opts.P.threshold *. 2. } in
  let r =
    match Vinc.Splice.run ~opts:other ~baseline:base ~out old_t with
    | Ok r -> r
    | Error e -> failwith e
  in
  check Alcotest.bool "whole baseline invalidated" true
    (r.Vinc.Splice.sp_conservative <> None);
  check Alcotest.int "nothing carried" 0 (List.length r.Vinc.Splice.sp_reused);
  List.iter rm_rf [ base; out ]

let test_upgrade_digest_short_circuit () =
  let model = (P.analyze_exn ~opts (G.to_target v1) "opt0").P.model in
  let d = B.model_digest model in
  let r = Vchecker.Checker.check_upgrade ~old_digest:d ~new_digest:d ~old_model:model ~new_model:model () in
  check Alcotest.int "equal digests short-circuit to no findings" 0
    (List.length r.Vchecker.Checker.findings)

(* ------------------------------------------------------------------ *)
(* Pipeline warm-cache path                                            *)
(* ------------------------------------------------------------------ *)

let test_pipeline_cache_warm_run () =
  let target = G.to_target v1 in
  let cache = temp_dir "pipe_cache" in
  let copts = { opts with P.cache_dir = Some cache } in
  let solves (a : P.analysis) =
    a.P.result.Vsymexec.Executor.sched.Vsched.Exploration_stats.solver_solves
  in
  let cold =
    match P.analyze ~opts:copts target "opt1" with
    | Ok a -> a
    | Error e -> failwith (P.error_to_string e)
  in
  check Alcotest.int "cold run primes nothing" 0 cold.P.cache_primed;
  check Alcotest.bool "cold run solves" true (solves cold > 0);
  let warm =
    match P.analyze ~opts:copts target "opt1" with
    | Ok a -> a
    | Error e -> failwith (P.error_to_string e)
  in
  check Alcotest.bool "warm run primes entries" true (warm.P.cache_primed > 0);
  check Alcotest.bool "warm run solves less" true (solves warm < solves cold);
  check Alcotest.string "warm model byte-identical" (B.model_digest cold.P.model)
    (B.model_digest warm.P.model);
  (* a corrupt cache file is a cold start, never an error *)
  let path = Vsched.Cache_store.file ~dir:cache ~system:target.P.name ~param:"opt1" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "garbage");
  (match P.analyze ~opts:copts target "opt1" with
  | Ok a -> check Alcotest.int "corrupt file primes nothing" 0 a.P.cache_primed
  | Error e -> failwith (P.error_to_string e));
  rm_rf cache

let tests =
  [
    QCheck_alcotest.to_alcotest prop_store_roundtrip;
    tc "truncated cache file rejected" test_truncated_rejected;
    tc "bit-flipped cache file rejected" test_bitflip_rejected;
    tc "cache file under another stamp rejected" test_stamp_mismatch_rejected;
    tc "filter_dump scopes by footprint and zeroes counters" test_filter_dump;
    tc "irdiff classifies a one-function change" test_irdiff_classification;
    tc "irdiff keys ignore synthetic addresses" test_irdiff_addr_insensitive;
    tc "dirty symbols exclude untouched parameters" test_dirty_symbols;
    tc "splice reuses clean slices, matches scratch" test_splice_reuse_and_identity;
    tc "splice re-explores a registry-only change" test_splice_registry_only_change;
    tc "splice is conservative on an options change" test_splice_conservative_on_options_change;
    tc "upgrade check short-circuits on equal digests" test_upgrade_digest_short_circuit;
    tc "pipeline warm cache cuts solves, keeps bytes" test_pipeline_cache_warm_run;
  ]
