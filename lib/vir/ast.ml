type prim =
  | Fsync
  | Pwrite
  | Pread
  | Buffered_write
  | Buffered_read
  | Mutex_lock
  | Mutex_unlock
  | Cond_wait
  | Net_send
  | Net_recv
  | Dns_lookup
  | Malloc
  | Memcpy
  | Compute
  | Log_append
  | Cache_lookup
  | Cache_store
  | Page_fault

type binop = Vsmt.Expr.binop

type expr =
  | Const of int
  | Config of string
  | Workload of string
  | Local of string
  | Global of string
  | Not of expr
  | Neg of expr
  | Binop of binop * expr * expr
  | Ite of expr * expr * expr

type lvalue = Lv_local of string | Lv_global of string

type stmt =
  | Assign of lvalue * expr
  | If of expr * block * block
  | While of expr * block
  | Call of { dest : string option; fn : string; args : expr list; ret_addr : int }
  | Return of expr option
  | Prim of prim * expr list
  | Thread of int
  | Trace_on
  | Trace_off

and block = stmt list

type lib_effect = Pure | Benign | Effectful

type fkind =
  | Defined of block
  | Library of { effect : lib_effect; semantics : int list -> int; cost : (prim * int) list }

type func = { fname : string; params : string list; kind : fkind; addr : int }

type program = {
  pname : string;
  funcs : func list;
  entry : string;
  globals : (string * int) list;
}

let find_func_opt p name = List.find_opt (fun f -> String.equal f.fname name) p.funcs

let find_func p name =
  match find_func_opt p name with
  | Some f -> f
  | None -> failwith (Printf.sprintf "program %s: unknown function %s" p.pname name)

let prim_name = function
  | Fsync -> "fsync"
  | Pwrite -> "pwrite"
  | Pread -> "pread"
  | Buffered_write -> "buffered_write"
  | Buffered_read -> "buffered_read"
  | Mutex_lock -> "mutex_lock"
  | Mutex_unlock -> "mutex_unlock"
  | Cond_wait -> "cond_wait"
  | Net_send -> "net_send"
  | Net_recv -> "net_recv"
  | Dns_lookup -> "dns_lookup"
  | Malloc -> "malloc"
  | Memcpy -> "memcpy"
  | Compute -> "compute"
  | Log_append -> "log_append"
  | Cache_lookup -> "cache_lookup"
  | Cache_store -> "cache_store"
  | Page_fault -> "page_fault"

let rec iter_stmts f block =
  List.iter
    (fun s ->
      f s;
      match s with
      | If (_, t, e) -> iter_stmts f t; iter_stmts f e
      | While (_, b) -> iter_stmts f b
      | Assign _ | Call _ | Return _ | Prim _ | Thread _ | Trace_on | Trace_off -> ())
    block

let func_body f = match f.kind with Defined b -> b | Library _ -> []
