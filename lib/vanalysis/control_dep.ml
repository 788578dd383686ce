let classic cfg ~on y =
  let pd = Vir.Postdom.compute cfg in
  Vir.Postdom.control_dependent pd cfg ~on y

(* Mirror Cfg.of_func's node numbering (entry=0, exit=1, then statement nodes
   in visit order) and record, for every node, the ids of its lexically
   enclosing branch nodes. *)
let broadened_pairs (f : Vir.Ast.func) =
  let next_id = ref 2 in
  let pairs = ref [] in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  let rec go enclosing block =
    List.iter
      (fun (stmt : Vir.Ast.stmt) ->
        let id = fresh () in
        List.iter (fun b -> pairs := (b, id) :: !pairs) enclosing;
        match stmt with
        | Vir.Ast.If (_, t, e) ->
          go (id :: enclosing) t;
          go (id :: enclosing) e
        | Vir.Ast.While (_, b) -> go (id :: enclosing) b
        | Vir.Ast.Assign _ | Vir.Ast.Call _ | Vir.Ast.Return _ | Vir.Ast.Prim _
        | Vir.Ast.Thread _ | Vir.Ast.Trace_on | Vir.Ast.Trace_off ->
          ())
      block
  in
  go [] (Vir.Ast.func_body f);
  List.rev !pairs
