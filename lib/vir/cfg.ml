type node = {
  id : int;
  stmt : Ast.stmt option;
  label : string;
  mutable succs : int list;
  mutable preds : int list;
}

type t = { func_name : string; nodes : node array; entry_id : int; exit_id : int }

let stmt_label = function
  | Ast.Assign (Ast.Lv_local n, _) -> n ^ " = ..."
  | Ast.Assign (Ast.Lv_global n, _) -> "g:" ^ n ^ " = ..."
  | Ast.If _ -> "if"
  | Ast.While _ -> "while"
  | Ast.Call { fn; _ } -> "call " ^ fn
  | Ast.Return _ -> "return"
  | Ast.Prim (p, _) -> Ast.prim_name p
  | Ast.Thread n -> Printf.sprintf "thread %d" n
  | Ast.Trace_on -> "trace_on"
  | Ast.Trace_off -> "trace_off"

let of_func (f : Ast.func) =
  let nodes = ref [] in
  let next_id = ref 0 in
  let fresh stmt label =
    let n = { id = !next_id; stmt; label; succs = []; preds = [] } in
    incr next_id;
    nodes := n :: !nodes;
    n
  in
  let entry = fresh None "entry" in
  let exit_node = fresh None "exit" in
  let edge a b =
    if not (List.mem b.id a.succs) then a.succs <- b.id :: a.succs;
    if not (List.mem a.id b.preds) then b.preds <- a.id :: b.preds
  in
  (* [go block preds] wires [preds] to the block's first node and returns the
     dangling exits of the block (empty when all paths return). *)
  let rec go block preds =
    List.fold_left
      (fun preds stmt ->
        match stmt with
        | Ast.If (_, t, e) ->
          let cond = fresh (Some stmt) "if" in
          List.iter (fun p -> edge p cond) preds;
          let t_exits = go t [ cond ] in
          let e_exits = go e [ cond ] in
          (* an empty branch falls through from the condition itself *)
          let t_exits = if t = [] then [ cond ] else t_exits in
          let e_exits = if e = [] then [ cond ] else e_exits in
          t_exits @ e_exits
        | Ast.While (_, body) ->
          let cond = fresh (Some stmt) "while" in
          List.iter (fun p -> edge p cond) preds;
          let body_exits = go body [ cond ] in
          List.iter (fun p -> edge p cond) body_exits;
          [ cond ]
        | Ast.Return _ ->
          let n = fresh (Some stmt) "return" in
          List.iter (fun p -> edge p n) preds;
          edge n exit_node;
          []
        | Ast.Assign _ | Ast.Call _ | Ast.Prim _ | Ast.Thread _ | Ast.Trace_on
        | Ast.Trace_off ->
          let n = fresh (Some stmt) (stmt_label stmt) in
          List.iter (fun p -> edge p n) preds;
          [ n ])
      preds block
  in
  let exits = go (Ast.func_body f) [ entry ] in
  List.iter (fun p -> edge p exit_node) exits;
  (* a function whose body is empty still flows entry -> exit *)
  if entry.succs = [] then edge entry exit_node;
  let arr = Array.make !next_id entry in
  List.iter (fun n -> arr.(n.id) <- n) !nodes;
  { func_name = f.fname; nodes = arr; entry_id = entry.id; exit_id = exit_node.id }

let node t id = t.nodes.(id)

let branch_nodes t =
  Array.to_list t.nodes
  |> List.filter (fun n -> match n.stmt with Some (Ast.If _ | Ast.While _) -> true | _ -> false)
