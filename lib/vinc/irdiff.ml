module Ast = Vir.Ast

type t = {
  unchanged : string list;
  modified : string list;
  added : string list;
  removed : string list;
}

(* ------------------------------------------------------------------ *)
(* Address-free canonical rendering                                    *)
(* ------------------------------------------------------------------ *)

(* Content keys must not depend on the synthetic addresses, so this
   renderer leaves them out.  The rendering is an unambiguous
   S-expression: every construct is wrapped and tagged, so no two distinct
   bodies collide by concatenation. *)

let binop_tag (b : Vsmt.Expr.binop) =
  match b with
  | Vsmt.Expr.Add -> "add"
  | Vsmt.Expr.Sub -> "sub"
  | Vsmt.Expr.Mul -> "mul"
  | Vsmt.Expr.Div -> "div"
  | Vsmt.Expr.Mod -> "mod"
  | Vsmt.Expr.Eq -> "eq"
  | Vsmt.Expr.Ne -> "ne"
  | Vsmt.Expr.Lt -> "lt"
  | Vsmt.Expr.Le -> "le"
  | Vsmt.Expr.Gt -> "gt"
  | Vsmt.Expr.Ge -> "ge"
  | Vsmt.Expr.And -> "and"
  | Vsmt.Expr.Or -> "or"

let rec render_expr buf (e : Ast.expr) =
  match e with
  | Ast.Const v -> Buffer.add_string buf (Printf.sprintf "(c %d)" v)
  | Ast.Config n -> Buffer.add_string buf (Printf.sprintf "(cfg %s)" n)
  | Ast.Workload n -> Buffer.add_string buf (Printf.sprintf "(wl %s)" n)
  | Ast.Local n -> Buffer.add_string buf (Printf.sprintf "(l %s)" n)
  | Ast.Global n -> Buffer.add_string buf (Printf.sprintf "(g %s)" n)
  | Ast.Not a ->
    Buffer.add_string buf "(not ";
    render_expr buf a;
    Buffer.add_char buf ')'
  | Ast.Neg a ->
    Buffer.add_string buf "(neg ";
    render_expr buf a;
    Buffer.add_char buf ')'
  | Ast.Binop (op, a, b) ->
    Buffer.add_string buf (Printf.sprintf "(%s " (binop_tag op));
    render_expr buf a;
    Buffer.add_char buf ' ';
    render_expr buf b;
    Buffer.add_char buf ')'
  | Ast.Ite (c, a, b) ->
    Buffer.add_string buf "(ite ";
    render_expr buf c;
    Buffer.add_char buf ' ';
    render_expr buf a;
    Buffer.add_char buf ' ';
    render_expr buf b;
    Buffer.add_char buf ')'

let render_lvalue buf = function
  | Ast.Lv_local n -> Buffer.add_string buf (Printf.sprintf "(l %s)" n)
  | Ast.Lv_global n -> Buffer.add_string buf (Printf.sprintf "(g %s)" n)

let rec render_stmt buf (s : Ast.stmt) =
  match s with
  | Ast.Assign (lv, e) ->
    Buffer.add_string buf "(:= ";
    render_lvalue buf lv;
    Buffer.add_char buf ' ';
    render_expr buf e;
    Buffer.add_char buf ')'
  | Ast.If (c, a, b) ->
    Buffer.add_string buf "(if ";
    render_expr buf c;
    render_block buf a;
    render_block buf b;
    Buffer.add_char buf ')'
  | Ast.While (c, body) ->
    Buffer.add_string buf "(while ";
    render_expr buf c;
    render_block buf body;
    Buffer.add_char buf ')'
  | Ast.Call { dest; fn; args; ret_addr = _ } ->
    (* ret_addr is the synthetic builder-assigned site address: excluded *)
    Buffer.add_string buf
      (Printf.sprintf "(call %s %s" (match dest with Some d -> d | None -> "_") fn);
    List.iter
      (fun a ->
        Buffer.add_char buf ' ';
        render_expr buf a)
      args;
    Buffer.add_char buf ')'
  | Ast.Return None -> Buffer.add_string buf "(ret)"
  | Ast.Return (Some e) ->
    Buffer.add_string buf "(ret ";
    render_expr buf e;
    Buffer.add_char buf ')'
  | Ast.Prim (p, args) ->
    Buffer.add_string buf (Printf.sprintf "(prim %s" (Ast.prim_name p));
    List.iter
      (fun a ->
        Buffer.add_char buf ' ';
        render_expr buf a)
      args;
    Buffer.add_char buf ')'
  | Ast.Thread tid -> Buffer.add_string buf (Printf.sprintf "(thread %d)" tid)
  | Ast.Trace_on -> Buffer.add_string buf "(trace-on)"
  | Ast.Trace_off -> Buffer.add_string buf "(trace-off)"

and render_block buf (b : Ast.block) =
  Buffer.add_string buf " (";
  List.iter (render_stmt buf) b;
  Buffer.add_char buf ')'

(* Library semantics are closures: probe them on a fixed input grid instead
   of comparing structure.  The grid covers arities 0–3 with values that
   distinguish the arithmetic a generated system's libraries use; a
   semantics change invisible on the whole grid is treated as no change. *)
let probe_inputs =
  [ []; [ 0 ]; [ 1 ]; [ -1 ]; [ 7 ]; [ 13 ]; [ 0; 0 ]; [ 1; 1 ]; [ 3; 5 ]; [ 256; 4096 ]; [ 13; 7; 2 ] ]

let render_fkind buf = function
  | Ast.Defined body -> render_block buf body
  | Ast.Library { effect; semantics; cost } ->
    let eff =
      match effect with Ast.Pure -> "pure" | Ast.Benign -> "benign" | Ast.Effectful -> "effectful"
    in
    Buffer.add_string buf (Printf.sprintf " (lib %s (" eff);
    List.iter
      (fun (p, m) -> Buffer.add_string buf (Printf.sprintf "(%s %d)" (Ast.prim_name p) m))
      cost;
    Buffer.add_string buf ") (";
    List.iter
      (fun args ->
        match semantics args with
        | v -> Buffer.add_string buf (Printf.sprintf "%d;" v)
        | exception _ -> Buffer.add_string buf "!;")
      probe_inputs;
    Buffer.add_string buf "))"

let func_key (f : Ast.func) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "(func %s (%s)" f.Ast.fname (String.concat " " f.Ast.params));
  render_fkind buf f.Ast.kind;
  Buffer.add_char buf ')';
  Digest.to_hex (Digest.string (Buffer.contents buf))

let program_keys (p : Ast.program) =
  List.map (fun f -> f.Ast.fname, func_key f) p.Ast.funcs
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let diff ~old_keys (new_program : Ast.program) =
  let old_tbl = Hashtbl.create 64 in
  List.iter (fun (name, key) -> Hashtbl.replace old_tbl name key) old_keys;
  let new_keys = program_keys new_program in
  let unchanged = ref [] and modified = ref [] and added = ref [] in
  List.iter
    (fun (name, key) ->
      match Hashtbl.find_opt old_tbl name with
      | None -> added := name :: !added
      | Some old_key ->
        if String.equal old_key key then unchanged := name :: !unchanged
        else modified := name :: !modified)
    new_keys;
  let new_names = List.map fst new_keys in
  let removed =
    List.filter_map
      (fun (name, _) -> if List.mem name new_names then None else Some name)
      old_keys
  in
  {
    unchanged = List.sort String.compare !unchanged;
    modified = List.sort String.compare !modified;
    added = List.sort String.compare !added;
    removed = List.sort String.compare removed;
  }

let diff_programs ~old_program new_program =
  diff ~old_keys:(program_keys old_program) new_program

let dirty_functions t = List.sort String.compare (t.modified @ t.added)
