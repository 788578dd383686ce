open Ast

let binop_str op = Vsmt.Expr.(
  match op with
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||")

let rec pp_expr ppf = function
  | Const v -> Fmt.int ppf v
  | Config n -> Fmt.pf ppf "cfg:%s" n
  | Workload n -> Fmt.pf ppf "wl:%s" n
  | Local n -> Fmt.string ppf n
  | Global n -> Fmt.pf ppf "g:%s" n
  | Not e -> Fmt.pf ppf "!(%a)" pp_expr e
  | Neg e -> Fmt.pf ppf "-(%a)" pp_expr e
  | Binop (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp_expr a (binop_str op) pp_expr b
  | Ite (c, a, b) -> Fmt.pf ppf "(%a ? %a : %a)" pp_expr c pp_expr a pp_expr b

let rec pp_stmt_indent indent ppf stmt =
  let pad = String.make indent ' ' in
  match stmt with
  | Assign (Lv_local n, e) -> Fmt.pf ppf "%s%s = %a;" pad n pp_expr e
  | Assign (Lv_global n, e) -> Fmt.pf ppf "%sg:%s = %a;" pad n pp_expr e
  | If (c, t, e) ->
    Fmt.pf ppf "%sif (%a) {@.%a%s}" pad pp_expr c (pp_block (indent + 2)) t pad;
    if e <> [] then Fmt.pf ppf " else {@.%a%s}" (pp_block (indent + 2)) e pad
  | While (c, b) -> Fmt.pf ppf "%swhile (%a) {@.%a%s}" pad pp_expr c (pp_block (indent + 2)) b pad
  | Call { dest; fn; args; ret_addr } ->
    let dst = match dest with Some d -> d ^ " = " | None -> "" in
    Fmt.pf ppf "%s%s%s(%a); /* ret=0x%x */" pad dst fn Fmt.(list ~sep:comma pp_expr) args ret_addr
  | Return (Some e) -> Fmt.pf ppf "%sreturn %a;" pad pp_expr e
  | Return None -> Fmt.pf ppf "%sreturn;" pad
  | Prim (p, args) -> Fmt.pf ppf "%s@@%s(%a);" pad (prim_name p) Fmt.(list ~sep:comma pp_expr) args
  | Thread n -> Fmt.pf ppf "%s@@thread(%d);" pad n
  | Trace_on -> Fmt.pf ppf "%s@@trace_on;" pad
  | Trace_off -> Fmt.pf ppf "%s@@trace_off;" pad

and pp_block indent ppf block =
  List.iter (fun s -> Fmt.pf ppf "%a@." (pp_stmt_indent indent) s) block

let pp_func ppf (f : func) =
  match f.kind with
  | Defined body ->
    Fmt.pf ppf "func %s(%a) /* 0x%x */ {@.%a}@." f.fname
      Fmt.(list ~sep:comma string)
      f.params f.addr (pp_block 2) body
  | Library { effect; _ } ->
    let eff =
      match effect with Pure -> "pure" | Benign -> "benign" | Effectful -> "effectful"
    in
    Fmt.pf ppf "extern %s(...) /* 0x%x, %s */@." f.fname f.addr eff

let pp_program ppf (p : program) =
  Fmt.pf ppf "program %s (entry %s)@." p.pname p.entry;
  List.iter (fun (g, v) -> Fmt.pf ppf "global %s = %d@." g v) p.globals;
  List.iter (pp_func ppf) p.funcs
