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

(* The reader walks the payload with a cursor and builds the model's
   values directly; no tree of the text is ever built.  A first pass over
   the top-level list checks the syntax of the whole text (what
   {!Vsmt.Sexp.of_string} accepts) and records the byte offset of the
   first field of each name, so fields come in any order, a later
   duplicate and an unknown field are skipped, and [;] comments and quoted
   atoms read as anywhere else.  The second pass seeks to each field in
   turn.  Every loop over a list is a tail call or a [tail_mod_cons]
   build, so a long list costs no stack; a malformed payload raises [Bad]
   inside the reader and comes out of [of_string] as [Error]. *)

exception Bad of string

type cursor = {
  text : string;
  mutable pos : int;
  (* the last atom read is [text.[tok] .. text.[tok_end - 1]], quotes
     included *)
  mutable tok : int;
  mutable tok_end : int;
}

(* Out of line: an inlined copy adds frame descriptors to each caller, and
   the runtime's frame table, sized at a power of two, is resident in
   every process. *)
let[@inline never] fail fmt = Printf.ksprintf (fun e -> raise (Bad e)) fmt

let[@inline never] expected_at i what = fail "model: expected %s at byte %d" what i

let rec skip_comment text i =
  if i < String.length text && String.unsafe_get text i <> '\n' then skip_comment text (i + 1)
  else i

let rec skip_ws text i =
  if i >= String.length text then i
  else
    match String.unsafe_get text i with
    | ' ' | '\n' | '\t' | '\r' -> skip_ws text (i + 1)
    | ';' -> skip_ws text (skip_comment text i)
    | _ -> i

(* the next byte that is not blank or comment *)
let peek c =
  c.pos <- skip_ws c.text c.pos;
  if c.pos >= String.length c.text then expected_at c.pos "more input";
  String.unsafe_get c.text c.pos

let rec plain_end text i =
  if i >= String.length text then i
  else
    match String.unsafe_get text i with
    | ' ' | '\n' | '\t' | '\r' | '(' | ')' | '"' -> i
    | _ -> plain_end text (i + 1)

let rec quoted_end text i =
  if i >= String.length text then fail "model: unterminated string"
  else
    match String.unsafe_get text i with
    | '"' -> i + 1
    | '\\' when i + 1 >= String.length text -> fail "model: dangling escape"
    | '\\' -> quoted_end text (i + 2)
    | _ -> quoted_end text (i + 1)

(* moves past the next atom and records it as the token *)
let atom c =
  match peek c with
  | '(' | ')' -> expected_at c.pos "an atom"
  | ch ->
    c.tok <- c.pos;
    c.pos <- (if ch = '"' then quoted_end c.text (c.pos + 1) else plain_end c.text c.pos);
    c.tok_end <- c.pos

(* the token's value; a quoted atom is rare, and {!Vsmt.Sexp} keeps the one
   definition of its escapes *)
let tok_string c =
  let token = String.sub c.text c.tok (c.tok_end - c.tok) in
  if token.[0] <> '"' then token
  else match Sexp.of_string token with Ok (Sexp.Atom s) -> s | _ -> expected_at c.tok "an atom"

(* the value of the decimal digits in [i, stop), or -1 at another byte *)
let rec digits text i stop acc =
  if i = stop then acc
  else
    match text.[i] with
    | '0' .. '9' as d -> digits text (i + 1) stop ((acc * 10) + Char.code d - Char.code '0')
    | _ -> -1

(* [int_of_string] of the next atom.  An optional '-' and at most 18
   decimal digits, which cannot overflow, are read in place; any other
   spelling (a quoted atom, '+', '_', a base prefix, more digits) is left
   to [int_of_string] itself. *)
let int c =
  atom c;
  let text = c.text and stop = c.tok_end in
  let first = if text.[c.tok] = '-' then c.tok + 1 else c.tok in
  let v = if stop > first && stop - first <= 18 then digits text first stop 0 else -1 in
  if v >= 0 then if first > c.tok then -v else v
  else
    match int_of_string (tok_string c) with
    | v -> v
    | exception Failure _ -> expected_at c.tok "an integer"

let float c =
  atom c;
  match float_of_string (tok_string c) with
  | f -> f
  | exception Failure _ -> expected_at c.tok "a float"

let string c =
  atom c;
  tok_string c

let open_ c = if peek c = '(' then c.pos <- c.pos + 1 else expected_at c.pos "'('"
let close c = if peek c = ')' then c.pos <- c.pos + 1 else expected_at c.pos "')'"

(* at the ')' that ends the current list: move past it *)
let closes c =
  let at_close = peek c = ')' in
  if at_close then c.pos <- c.pos + 1;
  at_close

let head c name = if not (String.equal (string c) name) then expected_at c.tok name

(* The offset past the ')' that closes the [depth] lists open at [i],
   each byte checked as [Sexp.of_string] would check it: [;] starts a
   comment only where no atom is under way. *)
let rec skip_rest text i depth in_atom =
  if i >= String.length text then fail "model: unterminated list"
  else
    match String.unsafe_get text i with
    | '(' -> skip_rest text (i + 1) (depth + 1) false
    | ')' -> if depth = 1 then i + 1 else skip_rest text (i + 1) (depth - 1) false
    | '"' -> skip_rest text (quoted_end text (i + 1)) depth false
    | ' ' | '\n' | '\t' | '\r' -> skip_rest text (i + 1) depth false
    | ';' when not in_atom -> skip_rest text (skip_comment text i) depth false
    | _ -> skip_rest text (i + 1) depth true

let skip_one c =
  match peek c with
  | '(' -> c.pos <- skip_rest c.text (c.pos + 1) 1 false
  | ')' -> expected_at c.pos "an s-expression"
  | _ -> atom c

(* the items up to the ')' that ends the current list, in order *)
let[@tail_mod_cons] rec items read c =
  if closes c then []
  else
    let x = read c in
    x :: items read c

let strings c =
  open_ c;
  items string c

(* Skips the items up to the ')' that ends the current list.  Each list
   among them headed by an atom is a field: the table maps the name to the
   offset of the '(' of its first field. *)
let index_fields c =
  let fields = Hashtbl.create 16 in
  while not (closes c) do
    if c.text.[c.pos] = '(' then begin
      let start = c.pos in
      c.pos <- c.pos + 1;
      (match peek c with
      | '(' | ')' -> ()
      | _ ->
        let name = string c in
        if not (Hashtbl.mem fields name) then Hashtbl.add fields name start);
      c.pos <- skip_rest c.text c.pos 1 false
    end
    else atom c
  done;
  fields

(* moves past the name of field [name] *)
let seek c what fields name =
  match Hashtbl.find_opt fields name with
  | None -> fail "%s: missing field %s" what name
  | Some start ->
    c.pos <- start + 1;
    atom c

let node_ref nodes c =
  let i = int c in
  if i >= 0 && i < Array.length nodes then Array.unsafe_get nodes i
  else fail "model: no node %d" i

let refs nodes c =
  open_ c;
  items (node_ref nodes) c

(* Node [k] may name only nodes below [k], so a forward or self reference
   is an error, never a cycle to chase. *)
let child nodes k c =
  let i = int c in
  if i >= 0 && i < k then nodes.(i)
  else fail "model: node %d names a node that is not below it" k

let node vars nodes k c =
  open_ c;
  let e =
    match string c with
    | "const" -> E.const (int c)
    | "var" ->
      let i = int c in
      if i >= 0 && i < Array.length vars then E.of_var (Array.unsafe_get vars i)
      else fail "model: node %d names no declared var" k
    | "not" -> E.not_ (child nodes k c)
    | "neg" -> E.neg (child nodes k c)
    | "ite" ->
      let x = child nodes k c in
      let a = child nodes k c in
      let b = child nodes k c in
      E.ite x a b
    | op -> (
      match Serial.binop_of_atom op with
      | Error e -> fail "%s" e
      | Ok op ->
        let a = child nodes k c in
        let b = child nodes k c in
        E.binop op a b)
  in
  close c;
  e

let rec count c n =
  if closes c then n
  else begin
    skip_one c;
    count c (n + 1)
  end

let nodes_field vars c =
  let start = c.pos in
  let nodes = Array.make (count c 0) E.tru in
  c.pos <- start;
  for k = 0 to Array.length nodes - 1 do
    nodes.(k) <- node vars nodes k c
  done;
  close c;
  nodes

(* A var is a few dozen bytes, so it is read as a tree: the var and domain
   grammar keeps its one definition in {!Vsmt.Serial}. *)
let var c =
  ignore (peek c);
  let start = c.pos in
  skip_one c;
  let text = String.sub c.text start (c.pos - start) in
  match Result.bind (Sexp.of_string text) Serial.var_of_sexp with
  | Ok v -> v
  | Error e -> fail "%s" e

let cost c =
  open_ c;
  let latency_us = float c in
  let instructions = int c in
  let syscalls = int c in
  let io_calls = int c in
  let io_bytes = int c in
  let sync_ops = int c in
  let net_ops = int c in
  let allocations = int c in
  let cache_ops = int c in
  close c;
  { Vruntime.Cost.latency_us; instructions; syscalls; io_calls; io_bytes; sync_ops; net_ops;
    allocations; cache_ops }

let row nodes c =
  open_ c;
  let state_id = int c in
  let config_constraints = refs nodes c in
  let workload_pred = refs nodes c in
  let cost = cost c in
  let traced_latency_us = float c in
  let critical_ops = strings c in
  close c;
  { Cost_row.state_id; config_constraints; workload_pred; cost; traced_latency_us; chain = [];
    nodes = []; critical_ops }

let pair c =
  open_ c;
  head c "pair";
  let slow_id = int c in
  let fast_id = int c in
  let similarity = int c in
  let latency_ratio = float c in
  let trigger = string c in
  let critical_path = strings c in
  let max_differential_us = float c in
  close c;
  { slow_id; fast_id; similarity; latency_ratio; trigger; critical_path; max_differential_us }

let dropped_path nodes c =
  open_ c;
  head c "dp";
  let dp_state_id = int c in
  let dp_config_constraints = refs nodes c in
  let dp_latency_so_far_us = float c in
  close c;
  { dp_state_id; dp_config_constraints; dp_latency_so_far_us }

let degradation nodes c =
  let fields = index_fields c in
  let seek = seek c "degradation" fields in
  seek "rungs";
  let rungs = items string c in
  seek "deadline-hit";
  let deadline_hit =
    match string c with
    | "true" -> true
    | "false" -> false
    | _ -> fail "degradation: bad deadline-hit"
  in
  close c;
  seek "dropped";
  let dropped_paths = items (dropped_path nodes) c in
  { rungs; deadline_hit; dropped_paths }

let model c fields =
  let seek = seek c "model" fields in
  let one name read =
    seek name;
    let x = read c in
    close c;
    x
  in
  let many name read =
    seek name;
    items read c
  in
  let system = one "system" string in
  let target = one "target" string in
  let related = many "related" string in
  let threshold = one "threshold" float in
  let vars = Array.of_list (many "vars" var) in
  seek "nodes";
  let nodes = nodes_field vars c in
  let rows = many "rows" (row nodes) in
  let poor_pairs = many "pairs" pair in
  let poor_state_ids = many "poor-states" int in
  let max_ratio = one "max-ratio" float in
  let explored_states = one "explored-states" int in
  let analysis_wall_s = one "analysis-wall-s" float in
  let virtual_analysis_s = one "virtual-analysis-s" float in
  (* a complete model has no degradation section *)
  let degradation =
    if Hashtbl.mem fields "degradation" then begin
      seek "degradation";
      Some (degradation nodes c)
    end
    else None
  in
  { system; target; related; threshold; rows; poor_pairs; poor_state_ids; max_ratio;
    explored_states; analysis_wall_s; virtual_analysis_s; degradation }

let read c =
  if peek c <> '(' then fail "model: not an impact model";
  c.pos <- c.pos + 1;
  let tag = match peek c with '(' | ')' -> "" | _ -> string c in
  let fields = index_fields c in
  c.pos <- skip_ws c.text c.pos;
  if c.pos < String.length c.text then fail "trailing input at %d" c.pos;
  if String.equal tag format_tag then model c fields
  else if String.equal tag "impact-model" then fail "%s" format1_error
  else fail "model: not an impact model"

let of_string s =
  match read { text = s; pos = 0; tok = 0; tok_end = 0 } with
  | m -> Ok m
  | exception Bad e -> Error e

let pp_cost_table ppf t =
  Fmt.pf ppf "Cost table for %s (%s), related = [%s]:@." t.target t.system
    (String.concat ", " t.related);
  List.iter
    (fun row ->
      let poor = if is_poor_row t row then " [POOR]" else "" in
      Fmt.pf ppf "%a%s@." Cost_row.pp row poor)
    t.rows
