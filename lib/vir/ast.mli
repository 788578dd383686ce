(** The intermediate representation target-system models are written in.

    The paper applies Violet to C/C++ systems whose binaries S²E executes.
    Here the four target systems are modelled as programs in this small
    imperative IR; the symbolic executor, the concrete executor, and the
    static analyzer all consume it.  The IR keeps exactly the features
    Violet's reasoning needs:

    - reads of {e configuration} and {e workload} variables (the symbolic
      sources);
    - branches, loops, assignments, function calls (control flow for path
      exploration and control-dependency analysis);
    - {e cost primitives} — fsync, pwrite, mutex, DNS lookup, ... — the slow
      operations whose conditional execution is what makes a configuration
      specious (paper Section 2.3);
    - {e library calls} with a side-effect classification, driving the
      selective-concretization consistency model (Section 5.4).

    Functions carry synthetic start addresses and call sites carry synthetic
    return addresses, so the tracer can do the paper's return-address record
    matching and closest-enclosing-address call-path reconstruction
    literally (Section 4.5). *)

(** Cost-bearing primitive operations.  Magnitudes (bytes, units) come from
    the statement's argument expressions; see {!stmt}. *)
type prim =
  | Fsync  (** synchronous flush of OS-cached writes to disk *)
  | Pwrite  (** direct write, arg = bytes *)
  | Pread  (** direct read, arg = bytes *)
  | Buffered_write  (** write absorbed by the OS buffer cache, arg = bytes *)
  | Buffered_read  (** read served from the OS buffer cache, arg = bytes *)
  | Mutex_lock
  | Mutex_unlock
  | Cond_wait  (** blocking wait; decreases system concurrency *)
  | Net_send  (** arg = bytes *)
  | Net_recv  (** arg = bytes *)
  | Dns_lookup
  | Malloc  (** arg = bytes *)
  | Memcpy  (** arg = bytes *)
  | Compute  (** pure CPU work, arg = abstract units *)
  | Log_append  (** buffered log record append, arg = bytes *)
  | Cache_lookup
  | Cache_store
  | Page_fault

type binop = Vsmt.Expr.binop

type expr =
  | Const of int
  | Config of string  (** read a configuration parameter *)
  | Workload of string  (** read a workload-template (input) parameter *)
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
      (** [ret_addr] is assigned by {!Builder.program}; 0 before resolution *)
  | Return of expr option
  | Prim of prim * expr list
  | Thread of int  (** subsequent signals carry this thread id *)
  | Trace_on  (** tracer start hook: the target finished initialization *)
  | Trace_off  (** tracer stop hook: the target enters shutdown *)

and block = stmt list

(** Side-effect classification of a library function, per the paper's
    relaxation rules (Section 5.4). *)
type lib_effect =
  | Pure  (** no side effect (strlen, strcmp): return becomes a fresh
              symbol and the concretization constraint is dropped *)
  | Benign  (** side effect that cannot hurt functionality (printf):
                concretization constraint dropped *)
  | Effectful  (** concretization constraint must be kept *)

type fkind =
  | Defined of block
  | Library of { effect : lib_effect; semantics : int list -> int; cost : (prim * int) list }

type func = { fname : string; params : string list; kind : fkind; addr : int }

type program = {
  pname : string;
  funcs : func list;
  entry : string;
  globals : (string * int) list;  (** initial values *)
}

val find_func : program -> string -> func
(** Raises [Not_found] with a descriptive [Failure] when absent. *)

val find_func_opt : program -> string -> func option

val prim_name : prim -> string

val iter_stmts : (stmt -> unit) -> block -> unit
(** Pre-order traversal of a block including nested blocks. *)

val func_body : func -> block
(** Body of a defined function; [[]] for library functions. *)
