(* Tests for vinc: the IR differ's content keys and the splice engine's
   reuse/identity contract. *)

module E = Vsmt.Expr
module P = Violet.Pipeline
module G = Vfuzz.Genspec
module B = Vinc.Baseline

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

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
   key stays put; the splice must still land on the scratch rebuild's
   models. *)
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
  let scratch = temp_dir "reg_scratch" in
  let mf_old, _ = match B.build ~opts ~dir:base old_t with Ok r -> r | Error e -> failwith e in
  let scratch_mf, _ =
    match B.build ~opts ~dir:scratch new_t with Ok r -> r | Error e -> failwith e
  in
  let r =
    match Vinc.Splice.run ~opts ~baseline:base ~out new_t with
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
  List.iter rm_rf [ base; out; scratch ]

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

let tests =
  [
    tc "irdiff classifies a one-function change" test_irdiff_classification;
    tc "irdiff keys ignore synthetic addresses" test_irdiff_addr_insensitive;
    tc "splice reuses clean slices, matches scratch" test_splice_reuse_and_identity;
    tc "splice re-explores a registry-only change" test_splice_registry_only_change;
    tc "splice is conservative on an options change" test_splice_conservative_on_options_change;
    tc "upgrade check short-circuits on equal digests" test_upgrade_digest_short_circuit;
  ]
