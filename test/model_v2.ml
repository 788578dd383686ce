(* The format-2 impact-model printer and reader as they were first
   written.  The printer builds the model's whole [Sexp.t] tree and prints
   it with [Sexp.to_string]; the reader parses the whole text with
   [Sexp.of_string] and converts the tree.  The library appends one small
   tree per item to one buffer and reads the bytes with a cursor; these are
   the references its byte-identity and differential properties compare it
   with, as [Model_v1] is for format 1. *)

module M = Vmodel.Impact_model
module Row = Vmodel.Cost_row
module E = Vsmt.Expr
module Sexp = Vsmt.Sexp
module Serial = Vsmt.Serial
module Expr_tbl = Hashtbl.Make (E)

let cost_to_sexp (c : Vruntime.Cost.t) =
  Sexp.list
    (Sexp.float c.latency_us
    :: List.map Sexp.int
         [ c.instructions; c.syscalls; c.io_calls; c.io_bytes; c.sync_ops; c.net_ops;
           c.allocations; c.cache_ops ])

let pair_to_sexp (p : M.poor_pair_summary) =
  Sexp.list
    [ Sexp.atom "pair"; Sexp.int p.slow_id; Sexp.int p.fast_id; Sexp.int p.similarity;
      Sexp.float p.latency_ratio; Sexp.atom p.trigger;
      Sexp.list (List.map Sexp.atom p.critical_path); Sexp.float p.max_differential_us ]

let to_string (t : M.t) =
  let index = Expr_tbl.create 256 and vars = ref [] and n_vars = ref 0 and nodes = ref [] in
  let rec node e =
    match Expr_tbl.find_opt index e with
    | Some i -> i
    | None ->
      let tag, children =
        match E.view e with
        | E.Const v -> ("const", [ v ])
        | E.Var v ->
          vars := Serial.var_to_sexp v :: !vars;
          incr n_vars;
          ("var", [ !n_vars - 1 ])
        | E.Not a -> ("not", [ node a ])
        | E.Neg a -> ("neg", [ node a ])
        | E.Binop (op, a, b) ->
          let a = node a in
          (Serial.binop_atom op, [ a; node b ])
        | E.Ite (c, a, b) ->
          let c = node c in
          let a = node a in
          ("ite", [ c; a; node b ])
      in
      nodes := Sexp.list (Sexp.atom tag :: List.map Sexp.int children) :: !nodes;
      let i = Expr_tbl.length index in
      Expr_tbl.add index e i;
      i
  in
  let refs es = Sexp.list (List.map (fun e -> Sexp.int (node e)) es) in
  let field name items = Sexp.list (Sexp.atom name :: items) in
  (* rows and dropped paths number the nodes, so they render first *)
  let rows =
    List.map
      (fun (r : Row.t) ->
        let configs = refs r.config_constraints in
        let workloads = refs r.workload_pred in
        Sexp.list
          [ Sexp.int r.state_id; configs; workloads; cost_to_sexp r.cost;
            Sexp.float r.traced_latency_us; Sexp.list (List.map Sexp.atom r.critical_ops) ])
      t.rows
  in
  let dropped_path (dp : M.dropped_path) =
    let configs = refs dp.dp_config_constraints in
    field "dp" [ Sexp.int dp.dp_state_id; configs; Sexp.float dp.dp_latency_so_far_us ]
  in
  let degradation =
    Option.map
      (fun (d : M.degradation_summary) ->
        let dropped = List.map dropped_path d.dropped_paths in
        field "degradation"
          [ field "rungs" (List.map Sexp.atom d.rungs);
            field "deadline-hit" [ Sexp.atom (string_of_bool d.deadline_hit) ];
            field "dropped" dropped ])
      t.degradation
  in
  Sexp.to_string
    (field "impact-model-v2"
       ([ field "system" [ Sexp.atom t.system ]; field "target" [ Sexp.atom t.target ];
          field "related" (List.map Sexp.atom t.related);
          field "threshold" [ Sexp.float t.threshold ]; field "vars" (List.rev !vars);
          field "nodes" (List.rev !nodes); field "rows" rows;
          field "pairs" (List.map pair_to_sexp t.poor_pairs);
          field "poor-states" (List.map Sexp.int t.poor_state_ids);
          field "max-ratio" [ Sexp.float t.max_ratio ];
          field "explored-states" [ Sexp.int t.explored_states ];
          field "analysis-wall-s" [ Sexp.float t.analysis_wall_s ];
          field "virtual-analysis-s" [ Sexp.float t.virtual_analysis_s ] ]
       @ Option.to_list degradation))

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
        { Row.state_id; config_constraints; workload_pred; cost; traced_latency_us;
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
      Ok { M.slow_id; fast_id; similarity; latency_ratio; trigger; critical_path;
           max_differential_us }
    | _ -> Error "pair: malformed field")
  | s -> Error ("pair: unrecognized " ^ Sexp.to_string s)

let dropped_path_of_sexp nodes = function
  | Sexp.List [ Sexp.Atom "dp"; id; configs; lat ] -> (
    match (Sexp.to_int id, Sexp.to_float lat) with
    | Some dp_state_id, Some dp_latency_so_far_us ->
      let* dp_config_constraints = refs_of_sexp nodes configs in
      Ok { M.dp_state_id; dp_config_constraints; dp_latency_so_far_us }
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
  Ok { M.rungs; deadline_hit; dropped_paths }

let of_sexp = function
  | Sexp.List (Sexp.Atom "impact-model-v2" :: fields) ->
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
      { M.system; target; related; threshold; rows; poor_pairs; poor_state_ids; max_ratio;
        explored_states; analysis_wall_s; virtual_analysis_s; degradation }
  | Sexp.List (Sexp.Atom "impact-model" :: _) -> Error M.format1_error
  | _ -> Error "model: not an impact model"

let of_string s = Result.bind (Sexp.of_string s) of_sexp
