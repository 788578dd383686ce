open Vir.Ast
module Sset = Set.Make (String)
module Smap = Map.Make (String)

type t = {
  usage_funcs_by_param : Sset.t Smap.t;
  usage_guards_tbl : (string * string, string list list) Hashtbl.t;
  call_guards_tbl : (string * string, string list list) Hashtbl.t;
  params : Sset.t;
}

let find_set key m = match Smap.find_opt key m with Some s -> s | None -> Sset.empty

(* ------------------------------------------------------------------ *)
(* Phase 1: taint fixpoint.  For each function: which params flow into  *)
(* each local, each global, and the function's return value.           *)
(* ------------------------------------------------------------------ *)

let run_taint (p : program) =
  let globals = ref Smap.empty and returns = ref Smap.empty in
  let locals = ref Smap.empty in
  let locals_of fname =
    match Smap.find_opt fname !locals with Some m -> m | None -> Smap.empty
  in
  let changed = ref true in
  let taint_of_expr fname e =
    let rec go acc = function
      | Const _ | Workload _ -> acc
      | Config prm -> Sset.add prm acc
      | Local n -> Sset.union acc (find_set n (locals_of fname))
      | Global n -> Sset.union acc (find_set n !globals)
      | Not e | Neg e -> go acc e
      | Binop (_, a, b) -> go (go acc a) b
      | Ite (c, a, b) -> go (go (go acc c) a) b
    in
    go Sset.empty e
  in
  let set_local fname n s =
    let m = locals_of fname in
    let cur = find_set n m in
    if not (Sset.subset s cur) then begin
      locals := Smap.add fname (Smap.add n (Sset.union cur s) m) !locals;
      changed := true
    end
  in
  let set_global n s =
    let cur = find_set n !globals in
    if not (Sset.subset s cur) then begin
      globals := Smap.add n (Sset.union cur s) !globals;
      changed := true
    end
  in
  let set_return fname s =
    let cur = find_set fname !returns in
    if not (Sset.subset s cur) then begin
      returns := Smap.add fname (Sset.union cur s) !returns;
      changed := true
    end
  in
  let process_func (f : func) =
    let fname = f.fname in
    let rec go_block block = List.iter go_stmt block
    and go_stmt = function
      | Assign (Lv_local n, e) -> set_local fname n (taint_of_expr fname e)
      | Assign (Lv_global n, e) -> set_global n (taint_of_expr fname e)
      | If (_, t, e) -> go_block t; go_block e
      | While (_, b) -> go_block b
      | Call { dest = Some d; fn; args; _ } ->
        let arg_taint =
          List.fold_left (fun acc a -> Sset.union acc (taint_of_expr fname a)) Sset.empty args
        in
        set_local fname d (Sset.union (find_set fn !returns) arg_taint)
      | Call { dest = None; _ } -> ()
      | Return (Some e) -> set_return fname (taint_of_expr fname e)
      | Return None | Prim _ | Thread _ | Trace_on | Trace_off -> ()
    in
    go_block (func_body f)
  in
  (* Run to convergence: a round that changes anything adds a parameter to
     one of finitely many sets (a function's locals, the globals, a
     function's return), so the loop ends. *)
  while !changed do
    changed := false;
    List.iter process_func p.funcs
  done;
  taint_of_expr

(* ------------------------------------------------------------------ *)
(* Phase 2: guard walk.                                                *)
(* ------------------------------------------------------------------ *)

let analyze (p : program) =
  let taint_of = run_taint p in
  let usage_funcs_by_param = ref Smap.empty in
  let usage_guards_tbl = Hashtbl.create 64 in
  let call_guards_tbl = Hashtbl.create 64 in
  let all_params = ref Sset.empty in
  let note_usage fname param guards =
    all_params := Sset.add param !all_params;
    usage_funcs_by_param :=
      Smap.add param (Sset.add fname (find_set param !usage_funcs_by_param))
        !usage_funcs_by_param;
    let key = fname, param in
    let cur = match Hashtbl.find_opt usage_guards_tbl key with Some l -> l | None -> [] in
    Hashtbl.replace usage_guards_tbl key (cur @ [ guards ])
  in
  let note_call fname callee guards =
    let key = fname, callee in
    let cur = match Hashtbl.find_opt call_guards_tbl key with Some l -> l | None -> [] in
    Hashtbl.replace call_guards_tbl key (cur @ [ guards ])
  in
  let process_func (f : func) =
    let fname = f.fname in
    (* [guards] is the param set of enclosing branch conditions *)
    let rec go_block guards block = List.iter (go_stmt guards) block
    and exprs_of_stmt = function
      | Assign (_, e) -> [ e ]
      | If (c, _, _) | While (c, _) -> [ c ]
      | Call { args; _ } -> args
      | Return (Some e) -> [ e ]
      | Prim (_, args) -> args
      | Return None | Thread _ | Trace_on | Trace_off -> []
    and go_stmt guards stmt =
      let guard_list guards param = Sset.elements (Sset.remove param guards) in
      let note_all guards params =
        Sset.iter (fun prm -> note_usage fname prm (guard_list guards prm)) params
      in
      (* Short-circuit conjunctions nest: in [if (a && b)] the [b] test only
         runs when [a] held, so params of later conjuncts are guarded by
         params of earlier ones (the paper's c2 pattern, where
         query_cache_wlock_invalidate is tested after query_cache_type). *)
      let note_condition guards c =
        let rec conjuncts acc = function
          | Binop (Vsmt.Expr.And, a, b) -> conjuncts (conjuncts acc a) b
          | e -> acc @ [ e ]
        in
        let all_params =
          List.fold_left
            (fun (guards, all) conj ->
              let params = taint_of fname conj in
              note_all guards params;
              Sset.union guards params, Sset.union all params)
            (guards, Sset.empty) (conjuncts [] c)
        in
        snd all_params
      in
      match stmt with
      | If (c, t, e) ->
        let inner = Sset.union guards (note_condition guards c) in
        go_block inner t;
        go_block inner e
      | While (c, b) -> go_block (Sset.union guards (note_condition guards c)) b
      | Call { fn; _ } as s ->
        List.iter (fun e -> note_all guards (taint_of fname e)) (exprs_of_stmt s);
        note_call fname fn (Sset.elements guards)
      | (Assign _ | Return _ | Prim _ | Thread _ | Trace_on | Trace_off) as s ->
        List.iter (fun e -> note_all guards (taint_of fname e)) (exprs_of_stmt s)
    in
    go_block Sset.empty (func_body f)
  in
  List.iter process_func p.funcs;
  {
    usage_funcs_by_param = !usage_funcs_by_param;
    usage_guards_tbl;
    call_guards_tbl;
    params = !all_params;
  }

let usage_functions t param = Sset.elements (find_set param t.usage_funcs_by_param)

let usage_guards t ~func ~param =
  match Hashtbl.find_opt t.usage_guards_tbl (func, param) with Some l -> l | None -> []

let call_site_guards t ~func ~callee =
  match Hashtbl.find_opt t.call_guards_tbl (func, callee) with Some l -> l | None -> []

let all_params t = Sset.elements t.params
