module M = Vmodel.Impact_model
module Row = Vmodel.Cost_row
module Diff = Vmodel.Diff_analysis
module CM = Vmodel.Compiled_model

type finding = {
  param : string;
  message : string;
  slow_row : Row.t;
  fast_row : Row.t option;
  ratio : float;
  trigger : string;
  critical_path : string list;
  test_case : Test_case.t option;
}

type report = { findings : finding list; checked_in_s : float }

type mode = Solver | Hybrid

let ( let* ) = Result.bind

let timed f =
  let t0 = Unix.gettimeofday () in
  let findings = f () in
  { findings; checked_in_s = Unix.gettimeofday () -. t0 }

(* ------------------------------------------------------------------ *)
(* Engines: one set of checker semantics over two row-decision backends.
   The solver engine is the original substitute-simplify-solve path; the
   compiled engine answers from a {!Vmodel.Compiled_model}'s decision
   tables (falling back per row when the tables cannot close a decision).
   Both take each decision from its one definition in Compiled_model, and
   must produce byte-identical findings — the vfuzz oracle, bench matcheck
   and test_matcheck pin this. *)

type engine = {
  e_by_content : Row.t list -> Row.t list;
      (** the candidate pool in content order ({!by_content}) *)
  e_rows_matching : (string * int) list -> Row.t list;
  e_rows_matching_workload : (string * int) list -> Row.t list;
  e_mentions : Row.t -> string list -> bool;
  e_is_poor : Row.t -> bool;
  e_witness :
    require_joint_input:bool ->
    Row.t ->
    Row.t list ->
    (Row.t * (float * string * string list)) option;
      (** first candidate (most-comparable order, capped at
          [max_candidates]) that passes the joint-input gate (when required)
          and yields a verdict, with that verdict *)
}

(* The witness scan walks candidates most-comparable first (same input
   class, then similarity) and is capped: candidates far down the
   similarity order cannot produce a meaningful witness. *)
let max_candidates = 48

(* Candidate pools are sorted by row content before the witness scan sees
   them.  Both engines break similarity ties by pool position, so among
   equally similar candidates the witness is the first in content order,
   whatever the rows' places in the model.  The sort is stable and
   id-blind: rows with equal content keep pool order, and either is an
   equally valid witness (they differ only in [state_id]).  The order is
   part of the output — findings follow the sorted slow rows.  This is the
   reference; the compiled engine sorts by each row's precomputed key rank,
   the same order, and comes back here for a pool holding a row that is not
   physically a model row. *)
let by_content rows =
  List.map snd
    (List.stable_sort
       (fun (ka, _) (kb, _) -> String.compare ka kb)
       (List.map (fun r -> (Row.content_key r, r)) rows))

let solver_engine (model : M.t) =
  {
    e_by_content = by_content;
    e_rows_matching = (fun assignment -> M.rows_matching model assignment);
    e_rows_matching_workload =
      (fun w -> List.filter (fun r -> Row.workload_satisfied_by r w) model.M.rows);
    e_mentions = Row.mentions;
    e_is_poor = (fun r -> M.is_poor_row model r);
    e_witness =
      (fun ~require_joint_input slow rows ->
        CM.live_witness model ~cap:max_candidates ~require_joint_input ~slow rows);
  }

let compiled_engine (cm : CM.t) =
  {
    e_by_content =
      (fun rows ->
        match CM.content_order cm rows with Some sorted -> sorted | None -> by_content rows);
    e_rows_matching = (fun assignment -> CM.rows_matching cm assignment);
    e_rows_matching_workload = (fun w -> CM.rows_matching_workload cm w);
    e_mentions = (fun r params -> CM.mentions cm r params);
    e_is_poor = (fun r -> CM.is_poor_row cm r);
    e_witness =
      (fun ~require_joint_input slow rows ->
        CM.first_witness cm ~cap:max_candidates ~require_joint_input ~slow rows);
  }

(* Hybrid answers from a supplied artifact compiled from this very model
   (physical identity; the registry compiles at load time) and from the
   solver path otherwise.  An artifact for any other model is stale and
   never used, and nothing is compiled here: a one-shot check is cheaper on
   the solver path than compiling first (DESIGN.md Section 5j). *)
let engine_of ~mode ~compiled model =
  match (mode, compiled) with
  | Hybrid, Some cm when CM.model cm == model -> compiled_engine cm
  | _ -> solver_engine model

(* When the caller knows the slow/fast configurations, the test case is
   built to distinguish the pair (Test_case.of_pair); otherwise it solves
   the slow state's input predicate alone.  [rows] is the candidate pool;
   the engine picks the witness (first surviving candidate in comparison
   order).  Modes 1 and 2 require a single input class to trigger both
   states (Section 4.6); the workload-change mode deliberately compares
   across input classes. *)
let finding_of ?(require_joint_input = true) ?configs eng ~param ~message slow rows =
  match eng.e_witness ~require_joint_input slow rows with
  | None -> None
  | Some (fast, (ratio, trigger, critical_path)) ->
    let test_case =
      match configs with
      | Some (poor, good) -> begin
        match Test_case.of_pair ~poor ~good ~slow ~fast with
        | Some tc -> Some tc
        | None -> Test_case.of_row slow
      end
      | None -> Test_case.of_row slow
    in
    Some
      { param; message; slow_row = slow; fast_row = Some fast; ratio; trigger;
        critical_path; test_case }

(* Conservative widening for degraded models (built under budget pressure):
   every path the engine dropped is a configuration region with *unknown*
   cost, so the checker flags it rather than silently passing it.  The
   reported set can only grow relative to the complete model — degradation
   never hides a finding, it adds conservative ones. *)
let row_of_dropped (dp : M.dropped_path) =
  {
    Row.state_id = dp.M.dp_state_id;
    config_constraints = dp.M.dp_config_constraints;
    workload_pred = [];
    cost = { Vruntime.Cost.zero with Vruntime.Cost.latency_us = dp.M.dp_latency_so_far_us };
    traced_latency_us = dp.M.dp_latency_so_far_us;
    chain = [];
    nodes = [];
    critical_ops = [];
  }

let degraded_findings (model : M.t) =
  match model.M.degradation with
  | None -> []
  | Some d ->
    List.map
      (fun (dp : M.dropped_path) ->
        {
          param = model.M.target;
          message =
            Printf.sprintf
              "analysis was degraded (%s%s): path %d was dropped before completion, so \
               its configuration region has unknown cost — treat as potentially specious"
              (String.concat " -> " d.M.rungs)
              (if d.M.deadline_hit then ", deadline hit" else "")
              dp.M.dp_state_id;
          slow_row = row_of_dropped dp;
          fast_row = None;
          ratio = 0.;
          trigger = "degraded";
          critical_path = [];
          test_case = None;
        })
      d.M.dropped_paths

let check_update ?(mode = Hybrid) ?compiled ~model ~registry ~old_file ~new_file () =
  let* old_assignment, _ = Config_file.to_assignment registry old_file in
  let* new_assignment, _ = Config_file.to_assignment registry new_file in
  let eng = engine_of ~mode ~compiled model in
  Ok
    (timed (fun () ->
         let old_rows = eng.e_rows_matching old_assignment in
         let new_rows = eng.e_rows_matching new_assignment in
         let changed = Config_file.changed_keys ~old_file ~new_file in
         let changed_names = List.map (fun (k, _, _) -> k) changed in
         let relevant =
           List.filter
             (fun k -> String.equal k model.M.target || List.mem k model.M.related)
             changed_names
         in
         if relevant = [] then []
         else begin
           (* only states whose constraints involve an updated parameter can
              witness the regression (Section 4.7, scenario 1) *)
           let new_rows =
             eng.e_by_content (List.filter (fun r -> eng.e_mentions r relevant) new_rows)
           in
           let old_rows =
             eng.e_by_content (List.filter (fun r -> eng.e_mentions r relevant) old_rows)
           in
           List.filter_map
             (fun slow ->
               finding_of ~configs:(new_assignment, old_assignment) eng
                 ~param:(String.concat "," relevant)
                 ~message:
                   (Printf.sprintf
                      "config update on %s introduces a potential performance regression"
                      (String.concat ", " relevant))
                 slow old_rows)
             new_rows
         end
         @ degraded_findings model))

(* Representative alternative values of a parameter: full enumeration for
   small domains, boundary values plus the default otherwise. *)
let alternative_values (p : Vruntime.Config_registry.param) current =
  let dom = Vruntime.Config_registry.dom p in
  let lo = Vsmt.Dom.lo dom and hi = Vsmt.Dom.hi dom in
  let candidates =
    if Vsmt.Dom.size dom <= 16 then List.init (Vsmt.Dom.size dom) (fun k -> lo + k)
    else [ lo; hi; p.Vruntime.Config_registry.default; (lo + hi) / 2 ]
  in
  List.sort_uniq Int.compare (List.filter (fun v -> v <> current) candidates)

let check_current ?(mode = Hybrid) ?compiled ~model ~registry ~file () =
  let* assignment, _ = Config_file.to_assignment registry file in
  let eng = engine_of ~mode ~compiled model in
  Ok
    (timed (fun () ->
         let current_rows =
           eng.e_by_content
             (List.filter
                (fun r -> eng.e_is_poor r && eng.e_mentions r [ model.M.target ])
                (eng.e_rows_matching assignment))
         in
         (if current_rows = [] then []
          else begin
            (* "another value of the parameter performs significantly better"
               (Section 4.7, scenario 2): witnesses keep every other setting
               as deployed and change only the target *)
            let fast_rows =
              eng.e_by_content
                (match Vruntime.Config_registry.find_opt registry model.M.target with
                | None -> model.M.rows
                | Some p ->
                  let current = List.assoc model.M.target assignment in
                  List.concat_map
                    (fun alt ->
                      let assignment' =
                        (model.M.target, alt) :: List.remove_assoc model.M.target assignment
                      in
                      eng.e_rows_matching assignment')
                    (alternative_values p current))
            in
            List.filter_map
              (fun slow ->
                finding_of ~configs:(assignment, assignment) eng
                  ~param:model.M.target
                  ~message:
                    (Printf.sprintf
                       "current value of %s falls in a poor state; another value \
                        performs significantly better"
                       model.M.target)
                  slow fast_rows)
              current_rows
          end)
         @ degraded_findings model))

let check_upgrade ?old_digest ?new_digest ~old_model ~new_model () =
  timed (fun () ->
      (* identical serialized models can't produce findings — every row
         pairs with its byte-equal twin and compares equal.  Callers that
         already hold digests (the registry, vinc manifests) skip the row
         sweep entirely; purely a fast path, the sweep answers the same. *)
      match old_digest, new_digest with
      | Some a, Some b when String.equal a b -> []
      | _ ->
      (* keyed lookup instead of the former O(n²) assoc scan; first
         occurrence wins, preserving [List.assoc]'s semantics when two old
         rows render to the same constraint string *)
      let old_by_constraint = Hashtbl.create (List.length old_model.M.rows) in
      List.iter
        (fun r ->
          let key = Row.constraint_string r in
          if not (Hashtbl.mem old_by_constraint key) then
            Hashtbl.replace old_by_constraint key r)
        old_model.M.rows;
      List.filter_map
        (fun new_row ->
          match Hashtbl.find_opt old_by_constraint (Row.constraint_string new_row) with
          | None -> None
          | Some old_row -> begin
            match
              Diff.compare_pair ~threshold:new_model.M.threshold ~slow:new_row ~fast:old_row
            with
            | None -> None
            | Some (worst, triggers) ->
              Some
                {
                  param = new_model.M.target;
                  message =
                    Printf.sprintf
                      "code upgrade makes setting [%s] significantly slower than before"
                      (Row.constraint_string new_row);
                  slow_row = new_row;
                  fast_row = Some old_row;
                  ratio = 1. +. worst;
                  trigger = Diff.trigger_label triggers;
                  critical_path = new_row.Row.critical_ops;
                  test_case = Test_case.of_row new_row;
                }
          end)
        new_model.M.rows)

let check_workload_change ?(mode = Hybrid) ?compiled ~model ~old_workload ~new_workload
    () =
  let eng = engine_of ~mode ~compiled model in
  timed (fun () ->
      let old_rows = eng.e_rows_matching_workload old_workload in
      let new_rows = eng.e_rows_matching_workload new_workload in
      List.filter_map
        (fun slow ->
          finding_of ~require_joint_input:false eng ~param:model.M.target
            ~message:
              (Printf.sprintf
                 "workload change moves %s into a significantly slower state"
                 model.M.target)
            slow old_rows)
        new_rows
      (* a degraded model has configuration regions with unknown cost; the
         shifted workload may land in one, so the conservative widening
         applies to this mode exactly as it does to modes 1 and 2 *)
      @ degraded_findings model)

let pp_finding ppf f =
  Fmt.pf ppf "[%s] %s@.  state: %s@.  ratio: %.1fx (%s)@." f.param f.message
    (Row.constraint_string f.slow_row)
    f.ratio f.trigger;
  if f.critical_path <> [] then
    Fmt.pf ppf "  critical path: %s@." (String.concat " -> " f.critical_path);
  match f.test_case with
  | Some tc -> Fmt.pf ppf "  validate: %s@." tc.Test_case.description
  | None -> ()

let pp_report ppf r =
  if r.findings = [] then Fmt.pf ppf "no specious configuration detected@."
  else begin
    Fmt.pf ppf "%d finding(s):@." (List.length r.findings);
    List.iter (pp_finding ppf) r.findings
  end;
  Fmt.pf ppf "checked in %.3f s@." r.checked_in_s
