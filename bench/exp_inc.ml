(* Incremental re-analysis (DESIGN.md Section 5k): a one-function diff on
   a generated system of >= 20 functions must re-explore under 30% of the
   slices yet produce byte-identical models and upgrade verdicts.

   Phases and their BENCH_inc.json gates:
   - slice invalidation selectivity              -> "reuse_lt_30pct"
   - spliced-vs-scratch model + verdict identity -> "verdict_identical"
   - scratch-vs-splice wall time                 -> "speedup" (reported) *)

module P = Violet.Pipeline
module G = Vfuzz.Genspec
module Wire = Vserve.Wire

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      try Sys.rmdir path with Sys_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let ok = function Ok v -> v | Error e -> failwith e

(* A 21-function system whose exploration coverage is parameter-dependent:
   parameter [optI] gates the call chain helperJ -> helperJ+1 (J = 2I), so
   the slice for optI dynamically covers exactly its own two helpers and
   nothing gated by the other parameters.  Generated systems cannot play
   this role — [Generate.spec] keeps every function reachable on every
   path by construction, so their dynamic coverage is total and any
   one-function diff invalidates every slice. *)
let n_params = 10

let helper i =
  {
    G.f_name = Printf.sprintf "helper%d" i;
    f_body =
      ([
         G.S_op G.O_cache_lookup;
         G.S_op (G.O_compute (8 + (3 * i)));
         G.S_loop (6, [ G.S_op (G.O_log_append 512); G.S_op G.O_mutex_pair ]);
         G.S_if
           ( [ G.A_wl ("req_sz", Vsmt.Expr.Gt, 1) ],
             [ G.S_op (G.O_pwrite 4096) ],
             [ G.S_op (G.O_buffered_write (256 * (i + 1))) ] );
       ]
      @ if i mod 2 = 0 then [ G.S_call (Printf.sprintf "helper%d" (i + 1)) ] else []);
  }

let spec_v1 =
  let root =
    {
      G.f_name = "root";
      f_body =
        G.S_if
          ([ G.A_wl ("req_sz", Vsmt.Expr.Gt, 2) ], [ G.S_op (G.O_compute 16) ], [])
        :: List.init n_params (fun i ->
               G.S_if
                 ( [ G.A_cfg (Printf.sprintf "opt%d" i, Vsmt.Expr.Eq, 1) ],
                   [ G.S_call (Printf.sprintf "helper%d" (2 * i)) ],
                   [ G.S_op (G.O_compute 4) ] ));
    }
  in
  let t =
    {
      G.g_name = "inc-bench";
      g_seed = 0;
      g_cparams =
        List.init n_params (fun i ->
            { G.c_name = Printf.sprintf "opt%d" i; c_kind = G.C_bool; c_default = 0 });
      g_wparams = [ { G.w_name = "req_sz"; w_lo = 0; w_hi = 4 } ];
      g_funcs = root :: List.init (2 * n_params) helper;
      g_plants = [];
      g_decoys = [];
      g_trail = [];
    }
  in
  match G.validate t with
  | Ok () -> t
  | Error e -> failwith ("inc bench spec invalid: " ^ e)

let opts =
  {
    P.default_options with
    P.budget = Vresilience.Budget.with_max_states Vresilience.Budget.default 512;
  }

let run () =
  Util.section "Incremental re-analysis: one-function diff, splice vs scratch";
  let seed = !Util.fuzz_seed in
  let old_spec = spec_v1 in
  let old_t = G.to_target old_spec in
  let n_funcs = List.length old_t.P.program.Vir.Ast.funcs in
  let tmp = Filename.get_temp_dir_name () in
  let dir_old = Filename.concat tmp "violet_bench_inc_old" in
  let dir_inc = Filename.concat tmp "violet_bench_inc_spliced" in
  let dir_scratch = Filename.concat tmp "violet_bench_inc_scratch" in
  List.iter rm_rf [ dir_old; dir_inc; dir_scratch ];
  let (mf_old, _), t_base = timed (fun () -> ok (Vinc.Baseline.build ~opts ~dir:dir_old old_t)) in
  (* Flip_const perturbs one constant inside one function body: the
     smallest structure-preserving diff the mutator can make.  The draw is
     rng-positional, so draw a few candidates and keep the most localized
     one — the "routine maintenance commit" the incremental path targets —
     scoring each by how many baseline slices its diff would invalidate
     (recorded coverage ∩ dirty functions, the classifier's own rule). *)
  let invalidated dirty =
    List.length
      (List.filter
         (fun (s : Vinc.Baseline.slice) ->
           List.exists (fun f -> List.mem f dirty) s.Vinc.Baseline.sl_visited)
         mf_old.Vinc.Baseline.mf_slices)
  in
  let rng = Vfuzz.Sprng.make (seed + 1) in
  let candidates =
    List.filter_map
      (fun k -> Vfuzz.Mutate.apply_kind (Vfuzz.Sprng.split_at rng k) Vfuzz.Mutate.Flip_const old_spec)
      (List.init 12 Fun.id)
  in
  let new_spec, mutation =
    match
      List.sort
        (fun (_, _, a) (_, _, b) -> compare a b)
        (List.map
           (fun (s, d) ->
             let t = G.to_target s in
             let diff = Vinc.Irdiff.diff_programs ~old_program:old_t.P.program t.P.program in
             (s, d, invalidated (Vinc.Irdiff.dirty_functions diff)))
           candidates)
    with
    | (s, d, _) :: _ -> (s, d)
    | [] -> failwith "Flip_const produced no candidate mutations"
  in
  let new_t = G.to_target new_spec in
  let diff = Vinc.Irdiff.diff_programs ~old_program:old_t.P.program new_t.P.program in
  let report, t_inc =
    timed (fun () -> ok (Vinc.Splice.run ~opts ~baseline:dir_old ~out:dir_inc new_t))
  in
  let (scratch_mf, _), t_scratch =
    timed (fun () -> ok (Vinc.Baseline.build ~opts ~dir:dir_scratch new_t))
  in
  let reused = List.length report.Vinc.Splice.sp_reused in
  let reexplored = List.length report.Vinc.Splice.sp_reexplored in
  let total = reused + reexplored in
  let reuse_lt_30pct =
    total > 0 && float_of_int reexplored < 0.30 *. float_of_int total
  in
  (* model identity: the spliced baseline's per-slice digests must equal the
     scratch rebuild's, carried and re-explored alike *)
  let digests mf =
    List.map
      (fun (s : Vinc.Baseline.slice) -> (s.Vinc.Baseline.sl_param, s.Vinc.Baseline.sl_digest))
      mf.Vinc.Baseline.mf_slices
  in
  let models_identical =
    digests report.Vinc.Splice.sp_baseline = digests scratch_mf
  in
  if not models_identical then
    List.iter2
      (fun (p, a) (_, b) ->
        if a <> b then Util.note "model digest diverges for %s: spliced %s, scratch %s" p a b)
      (digests report.Vinc.Splice.sp_baseline)
      (digests scratch_mf);
  (* verdict identity: upgrade findings old->spliced must equal old->scratch
     (checked_in_s is wall time, so compare the findings only) *)
  let findings dir =
    List.map
      (fun (p, (r : Vchecker.Checker.report)) -> (p, r.Vchecker.Checker.findings))
      (ok (Vinc.Splice.check_upgrade ~old_dir:dir_old ~new_dir:dir))
  in
  let upgrade_inc = findings dir_inc in
  let verdict_identical = models_identical && upgrade_inc = findings dir_scratch in
  let n_findings = List.fold_left (fun n (_, fs) -> n + List.length fs) 0 upgrade_inc in
  let speedup = if t_inc > 0. then t_scratch /. t_inc else 0. in
  Util.print_table
    ~header:[ "phase"; "value" ]
    [
      [ "system"; Printf.sprintf "%s (%d functions)" old_spec.G.g_name n_funcs ];
      [ "mutation"; mutation ];
      [
        "diff";
        Printf.sprintf "%d modified, %d added, %d removed"
          (List.length diff.Vinc.Irdiff.modified)
          (List.length diff.Vinc.Irdiff.added)
          (List.length diff.Vinc.Irdiff.removed);
      ];
      [ "slices reused / re-explored"; Printf.sprintf "%d / %d" reused reexplored ];
      [
        "re-exploration reasons";
        String.concat "; "
          (List.sort_uniq String.compare (List.map snd report.Vinc.Splice.sp_reexplored));
      ];
      [ "old baseline wall"; Util.f1 t_base ^ " s" ];
      [ "splice wall"; Util.f1 t_inc ^ " s" ];
      [ "scratch wall"; Util.f1 t_scratch ^ " s" ];
      [ "splice speedup"; Util.fx speedup ];
      [ "upgrade findings"; Util.i0 n_findings ];
    ];
  Util.note "re-explored < 30%%: %s; verdicts byte-identical: %s" (Util.yes_no reuse_lt_30pct)
    (Util.yes_no verdict_identical);
  let r2 = Util.round 2 in
  Util.write_bench "inc"
    [
      ("seed", Wire.Int seed);
      ("functions", Wire.Int n_funcs);
      ("modified", Wire.Int (List.length diff.Vinc.Irdiff.modified));
      ("added", Wire.Int (List.length diff.Vinc.Irdiff.added));
      ("removed", Wire.Int (List.length diff.Vinc.Irdiff.removed));
      ("reused", Wire.Int reused);
      ("reexplored", Wire.Int reexplored);
      ("base_wall_s", Wire.Float (r2 t_base));
      ("splice_wall_s", Wire.Float (r2 t_inc));
      ("scratch_wall_s", Wire.Float (r2 t_scratch));
      ("speedup", Wire.Float (r2 speedup));
      ("findings", Wire.Int n_findings);
      ("reuse_lt_30pct", Wire.Bool reuse_lt_30pct);
      ("verdict_identical", Wire.Bool verdict_identical);
    ]
