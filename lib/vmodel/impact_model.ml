module Sexp = Vsmt.Sexp
module Serial = Vsmt.Serial

type poor_pair_summary = {
  slow_id : int;
  fast_id : int;
  similarity : int;
  latency_ratio : float;
  trigger : string;
  critical_path : string list;
  max_differential_us : float;
}

type dropped_path = {
  dp_state_id : int;
  dp_config_constraints : Vsmt.Expr.t list;
  dp_latency_so_far_us : float;
}

type degradation_summary = {
  rungs : string list;
  deadline_hit : bool;
  dropped_paths : dropped_path list;
}

type t = {
  system : string;
  target : string;
  related : string list;
  threshold : float;
  rows : Cost_row.t list;
  poor_pairs : poor_pair_summary list;
  poor_state_ids : int list;
  max_ratio : float;
  explored_states : int;
  analysis_wall_s : float;
  virtual_analysis_s : float;
  degradation : degradation_summary option;
}

let is_degraded t =
  match t.degradation with
  | None -> false
  | Some d -> d.deadline_hit || d.rungs <> [] || d.dropped_paths <> []

let summarize_pair (p : Diff_analysis.poor_pair) =
  {
    slow_id = p.Diff_analysis.slow.Cost_row.state_id;
    fast_id = p.Diff_analysis.fast.Cost_row.state_id;
    similarity = p.Diff_analysis.similarity;
    latency_ratio = p.Diff_analysis.latency_ratio;
    trigger = Diff_analysis.trigger_label p.Diff_analysis.triggers;
    critical_path = p.Diff_analysis.diff.Critical_path.critical_path;
    max_differential_us = p.Diff_analysis.diff.Critical_path.max_differential_us;
  }

let build ?degradation ~system ~target ~related ~rows ~analysis ~explored_states
    ~analysis_wall_s ~virtual_analysis_s () =
  {
    degradation;
    system;
    target;
    related;
    threshold = analysis.Diff_analysis.threshold;
    rows;
    poor_pairs = List.map summarize_pair analysis.Diff_analysis.pairs;
    poor_state_ids = analysis.Diff_analysis.poor_state_ids;
    max_ratio = analysis.Diff_analysis.max_ratio;
    explored_states;
    analysis_wall_s;
    virtual_analysis_s;
  }

let row_by_id t id = List.find_opt (fun r -> r.Cost_row.state_id = id) t.rows
let rows_matching t assignment = List.filter (fun r -> Cost_row.satisfied_by r assignment) t.rows
let poor_rows t = List.filter (fun r -> List.mem r.Cost_row.state_id t.poor_state_ids) t.rows
let is_poor_row t row = List.mem row.Cost_row.state_id t.poor_state_ids

let pairs_between t ~slow ~fast =
  List.filter
    (fun p ->
      p.slow_id = slow.Cost_row.state_id && p.fast_id = fast.Cost_row.state_id)
    t.poor_pairs

(* ------------------------------------------------------------------ *)
(* Serialization: format 2                                             *)
(* ------------------------------------------------------------------ *)

(* (impact-model-v2 (system S) (target T) ... (vars (var NAME DOM ORIGIN) ...)
     (nodes NODE ...) (rows (ID (CFG-IDX ...) (WL-IDX ...) COST LAT (OPS ...)) ...) ...)

   Each distinct variable and hash-consed node is written once, nodes in
   post-order of first use, so a child's index is always below its
   parent's.  A NODE is (const V), (var VAR-IDX), (not I), (neg I),
   (ite I J K) or (OP I J), OP an operator atom of {!Vsmt.Serial}. *)

module E = Vsmt.Expr
module Expr_tbl = Hashtbl.Make (E)

let format_tag = "impact-model-v2"

let format1_error =
  "model: this file is impact-model format 1, which is no longer read; re-run `violet \
   analyze SYSTEM PARAM --export FILE` to regenerate it"

let cost_to_sexp (c : Vruntime.Cost.t) =
  Sexp.list
    (Sexp.float c.latency_us
    :: List.map Sexp.int
         [ c.instructions; c.syscalls; c.io_calls; c.io_bytes; c.sync_ops; c.net_ops;
           c.allocations; c.cache_ops ])

let pair_to_sexp p =
  Sexp.list
    [ Sexp.atom "pair"; Sexp.int p.slow_id; Sexp.int p.fast_id; Sexp.int p.similarity;
      Sexp.float p.latency_ratio; Sexp.atom p.trigger;
      Sexp.list (List.map Sexp.atom p.critical_path); Sexp.float p.max_differential_us ]

(* models are printed on the main domain only, so one buffer prints every
   model *)
let model_buf = Vsmt.Render_buf.create ()

(* Two passes over the model.  The first numbers the nodes, rows then
   dropped paths, in post-order of first use.  The second appends one
   small tree per var, node, row and pair to [model_buf]; each dies young,
   and no tree of the whole model is ever built. *)
let to_string t =
  let index = Expr_tbl.create 256 and numbered = ref [] in
  let rec number e =
    if not (Expr_tbl.mem index e) then begin
      (match E.view e with
      | E.Const _ | E.Var _ -> ()
      | E.Not a | E.Neg a -> number a
      | E.Binop (_, a, b) ->
        number a;
        number b
      | E.Ite (c, a, b) ->
        number c;
        number a;
        number b);
      Expr_tbl.add index e (Expr_tbl.length index);
      numbered := e :: !numbered
    end
  in
  List.iter
    (fun (r : Cost_row.t) ->
      List.iter number r.config_constraints;
      List.iter number r.workload_pred)
    t.rows;
  Option.iter
    (fun d -> List.iter (fun dp -> List.iter number dp.dp_config_constraints) d.dropped_paths)
    t.degradation;
  let nodes = List.rev !numbered in
  let idx e = Sexp.int (Expr_tbl.find index e) in
  let refs es = Sexp.list (List.map idx es) in
  let n_vars = ref 0 in
  let node e =
    let tag, children =
      match E.view e with
      | E.Const v -> ("const", [ Sexp.int v ])
      | E.Var _ ->
        incr n_vars;
        ("var", [ Sexp.int (!n_vars - 1) ])
      | E.Not a -> ("not", [ idx a ])
      | E.Neg a -> ("neg", [ idx a ])
      | E.Binop (op, a, b) -> (Serial.binop_atom op, [ idx a; idx b ])
      | E.Ite (c, a, b) -> ("ite", [ idx c; idx a; idx b ])
    in
    Sexp.list (Sexp.atom tag :: children)
  in
  let row (r : Cost_row.t) =
    Sexp.list
      [ Sexp.int r.state_id; refs r.config_constraints; refs r.workload_pred;
        cost_to_sexp r.cost; Sexp.float r.traced_latency_us;
        Sexp.list (List.map Sexp.atom r.critical_ops) ]
  in
  let dropped_path dp =
    Sexp.list
      [ Sexp.atom "dp"; Sexp.int dp.dp_state_id; refs dp.dp_config_constraints;
        Sexp.float dp.dp_latency_so_far_us ]
  in
  let vars = List.filter_map (fun e -> match E.view e with E.Var v -> Some v | _ -> None) nodes in
  Vsmt.Render_buf.render model_buf (fun buf ->
      (* " (NAME ITEM ...)", each item printed as soon as it is built *)
      let field name item_sexp items =
        Buffer.add_string buf " (";
        Buffer.add_string buf name;
        List.iter
          (fun x ->
            Buffer.add_char buf ' ';
            Sexp.add buf (item_sexp x))
          items;
        Buffer.add_char buf ')'
      in
      Buffer.add_char buf '(';
      Buffer.add_string buf format_tag;
      field "system" Sexp.atom [ t.system ];
      field "target" Sexp.atom [ t.target ];
      field "related" Sexp.atom t.related;
      field "threshold" Sexp.float [ t.threshold ];
      field "vars" Serial.var_to_sexp vars;
      field "nodes" node nodes;
      field "rows" row t.rows;
      field "pairs" pair_to_sexp t.poor_pairs;
      field "poor-states" Sexp.int t.poor_state_ids;
      field "max-ratio" Sexp.float [ t.max_ratio ];
      field "explored-states" Sexp.int [ t.explored_states ];
      field "analysis-wall-s" Sexp.float [ t.analysis_wall_s ];
      field "virtual-analysis-s" Sexp.float [ t.virtual_analysis_s ];
      Option.iter
        (fun d ->
          Buffer.add_string buf " (degradation";
          field "rungs" Sexp.atom d.rungs;
          field "deadline-hit" Sexp.atom [ string_of_bool d.deadline_hit ];
          field "dropped" dropped_path d.dropped_paths;
          Buffer.add_char buf ')')
        t.degradation;
      Buffer.add_char buf ')')

let content_string t = to_string { t with analysis_wall_s = 0. }

let ( let* ) = Result.bind

(* linear in the list; stops at the first error *)
let map_result f items =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> ( match f x with Ok y -> go (y :: acc) rest | Error e -> Error e)
  in
  go [] items

let all what conv items =
  map_result (fun x -> Option.to_result ~none:("model: bad " ^ what) (conv x)) items

(* Node [k] may name only nodes below [k], so a forward or self reference
   is an error, never a cycle to chase. *)
let nodes_of_sexp vars items =
  let nodes = Array.make (List.length items) E.tru in
  let node k s =
    let child = function
      | Some i when i >= 0 && i < k -> Ok nodes.(i)
      | _ -> Error (Printf.sprintf "model: node %d names a node that is not below it" k)
    in
    match s with
    | Sexp.List (Sexp.Atom tag :: args) -> (
      match (tag, List.map Sexp.to_int args) with
      | "const", [ Some v ] -> Ok (E.const v)
      | "var", [ Some i ] when i >= 0 && i < Array.length vars -> Ok (E.of_var vars.(i))
      | "var", _ -> Error (Printf.sprintf "model: node %d names no declared var" k)
      | "not", [ a ] -> Result.map E.not_ (child a)
      | "neg", [ a ] -> Result.map E.neg (child a)
      | "ite", [ c; a; b ] ->
        let* c = child c in
        let* a = child a in
        let* b = child b in
        Ok (E.ite c a b)
      | op, [ a; b ] ->
        let* op = Serial.binop_of_atom op in
        let* a = child a in
        let* b = child b in
        Ok (E.binop op a b)
      | _ -> Error (Printf.sprintf "model: node %d is malformed" k))
    | _ -> Error (Printf.sprintf "model: node %d is malformed" k)
  in
  let rec go k = function
    | [] -> Ok nodes
    | s :: rest ->
      let* e = node k s in
      nodes.(k) <- e;
      go (k + 1) rest
  in
  go 0 items

let refs_of_sexp nodes = function
  | Sexp.List items ->
    map_result
      (fun x ->
        match Sexp.to_int x with
        | Some i when i >= 0 && i < Array.length nodes -> Ok nodes.(i)
        | _ -> Error ("model: no node " ^ Sexp.to_string x))
      items
  | s -> Error ("model: expected node indices, got " ^ Sexp.to_string s)

let atoms_of_sexp = function
  | Sexp.List items -> all "atom" Sexp.to_atom items
  | s -> Error ("expected list of atoms, got " ^ Sexp.to_string s)

let cost_of_sexp = function
  | Sexp.List (lat :: counts) -> (
    match (Sexp.to_float lat, List.map Sexp.to_int counts) with
    | ( Some latency_us,
        [ Some instructions; Some syscalls; Some io_calls; Some io_bytes; Some sync_ops;
          Some net_ops; Some allocations; Some cache_ops ] ) ->
      Ok
        { Vruntime.Cost.latency_us; instructions; syscalls; io_calls; io_bytes; sync_ops;
          net_ops; allocations; cache_ops }
    | _ -> Error "cost: malformed field")
  | s -> Error ("cost: unrecognized " ^ Sexp.to_string s)

let row_of_sexp nodes = function
  | Sexp.List [ id; configs; workloads; cost; lat; crit ] -> begin
    match Sexp.to_int id, Sexp.to_float lat with
    | Some state_id, Some traced_latency_us ->
      let* config_constraints = refs_of_sexp nodes configs in
      let* workload_pred = refs_of_sexp nodes workloads in
      let* cost = cost_of_sexp cost in
      let* critical_ops = atoms_of_sexp crit in
      Ok
        { Cost_row.state_id; config_constraints; workload_pred; cost; traced_latency_us;
          chain = []; nodes = []; critical_ops }
    | _ -> Error "row: malformed id or latency"
  end
  | s -> Error ("row: unrecognized " ^ Sexp.to_string s)

let pair_of_sexp = function
  | Sexp.List [ Sexp.Atom "pair"; slow; fast; sim; ratio; Sexp.Atom trigger; crit; maxd ] -> (
    match (List.map Sexp.to_int [ slow; fast; sim ], Sexp.to_float ratio, Sexp.to_float maxd) with
    | [ Some slow_id; Some fast_id; Some similarity ], Some latency_ratio, Some max_differential_us
      ->
      let* critical_path = atoms_of_sexp crit in
      Ok { slow_id; fast_id; similarity; latency_ratio; trigger; critical_path;
           max_differential_us }
    | _ -> Error "pair: malformed field")
  | s -> Error ("pair: unrecognized " ^ Sexp.to_string s)

let dropped_path_of_sexp nodes = function
  | Sexp.List [ Sexp.Atom "dp"; id; configs; lat ] -> (
    match (Sexp.to_int id, Sexp.to_float lat) with
    | Some dp_state_id, Some dp_latency_so_far_us ->
      let* dp_config_constraints = refs_of_sexp nodes configs in
      Ok { dp_state_id; dp_config_constraints; dp_latency_so_far_us }
    | _ -> Error "dropped-path: malformed field")
  | s -> Error ("dropped-path: unrecognized " ^ Sexp.to_string s)

(* the items of field [name] among [fields] *)
let get what fields name =
  let is_field = function
    | Sexp.List (Sexp.Atom tag :: rest) when String.equal tag name -> Some rest
    | _ -> None
  in
  Option.to_result ~none:(what ^ ": missing field " ^ name) (List.find_map is_field fields)

let degradation_of_fields nodes fields =
  let get = get "degradation" fields in
  let* rungs = let* f = get "rungs" in atoms_of_sexp (Sexp.List f) in
  let* deadline_hit = let* f = get "deadline-hit" in
    match f with
    | [ Sexp.Atom ("true" | "false" as b) ] -> Ok (b = "true")
    | _ -> Error "degradation: bad deadline-hit" in
  let* dropped_paths = let* f = get "dropped" in map_result (dropped_path_of_sexp nodes) f in
  Ok { rungs; deadline_hit; dropped_paths }

let of_sexp = function
  | Sexp.List (Sexp.Atom tag :: fields) when String.equal tag format_tag ->
    let get = get "model" fields in
    let one name conv =
      let* f = get name in
      match f with
      | [ x ] -> Option.to_result ~none:("model: bad " ^ name) (conv x)
      | _ -> Error ("model: bad " ^ name)
    in
    let* system = one "system" Sexp.to_atom in
    let* target = one "target" Sexp.to_atom in
    let* related = let* f = get "related" in atoms_of_sexp (Sexp.List f) in
    let* threshold = one "threshold" Sexp.to_float in
    let* vars = let* f = get "vars" in map_result Serial.var_of_sexp f in
    let* nodes = let* f = get "nodes" in nodes_of_sexp (Array.of_list vars) f in
    let* rows = let* f = get "rows" in map_result (row_of_sexp nodes) f in
    let* poor_pairs = let* f = get "pairs" in map_result pair_of_sexp f in
    let* poor_state_ids = let* f = get "poor-states" in all "poor-states" Sexp.to_int f in
    let* max_ratio = one "max-ratio" Sexp.to_float in
    let* explored_states = one "explored-states" Sexp.to_int in
    let* analysis_wall_s = one "analysis-wall-s" Sexp.to_float in
    let* virtual_analysis_s = one "virtual-analysis-s" Sexp.to_float in
    (* a complete model has no degradation section *)
    let* degradation =
      match get "degradation" with
      | Error _ -> Ok None
      | Ok rest -> Result.map Option.some (degradation_of_fields nodes rest)
    in
    Ok
      { system; target; related; threshold; rows; poor_pairs; poor_state_ids; max_ratio;
        explored_states; analysis_wall_s; virtual_analysis_s; degradation }
  | Sexp.List (Sexp.Atom "impact-model" :: _) -> Error format1_error
  | _ -> Error "model: not an impact model"

let of_string s = Result.bind (Sexp.of_string s) of_sexp

let pp_cost_table ppf t =
  Fmt.pf ppf "Cost table for %s (%s), related = [%s]:@." t.target t.system
    (String.concat ", " t.related);
  List.iter
    (fun row ->
      let poor = if is_poor_row t row then " [POOR]" else "" in
      Fmt.pf ppf "%a%s@." Cost_row.pp row poor)
    t.rows
