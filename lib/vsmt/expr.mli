(** Symbolic expressions.

    Violet reasons about path constraints: boolean combinations of comparisons
    between configuration variables, workload (input) variables, and constants.
    Expressions are integer-valued; booleans are encoded as 0/1, enums as
    member indices (see {!Dom}).  This mirrors the view a symbolic-execution
    engine has of the underlying program values. *)

type origin =
  | Config  (** the variable is a configuration parameter *)
  | Workload  (** the variable is a workload-template (input) parameter *)
  | Internal  (** engine-created symbol (e.g. a relaxed library return) *)

type var = { name : string; dom : Dom.t; origin : origin }

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** truncating; division by zero evaluates to 0, like a guarded path *)
  | Mod
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

(** Expressions are hash-consed: every structurally distinct expression is
    interned exactly once per process, so {!equal} is physical equality,
    {!hash} is a field read, and rendered forms ({!to_string}) are computed
    once per unique node.  The intern table is a plain process-global
    table: build expressions on the main domain only.

    [t] is [private]: build via the smart constructors below, destructure
    via {!view} (or direct [e.node] record patterns). *)

type t = private { id : int; hkey : int; node : node; mutable str : string }

and node =
  | Const of int
  | Var of var
  | Not of t
  | Neg of t
  | Binop of binop * t * t
  | Ite of t * t * t

val view : t -> node
(** The top node of [e]; children are themselves interned. *)

val id : t -> int
(** Unique id of the interned node.  Stable within a process run; NOT stable
    across processes or across [Marshal] — see {!rehash}. *)

val rehash : t -> t
(** Re-intern an expression whose nodes bypassed the constructors (i.e. came
    from [Marshal]).  Must be applied to every expression loaded from a
    snapshot before it is mixed with live expressions. *)

val interned_count : unit -> int
(** Number of distinct expressions interned so far (telemetry). *)

val var : ?origin:origin -> string -> Dom.t -> t
val of_var : var -> t
val const : int -> t
val tru : t
val fls : t

(** Infix constructors.  [( ==. )], [( <. )], ... build comparisons;
    [( &&. )]/[( ||. )] build conjunction/disjunction; arithmetic uses
    [( +. )]-style names suffixed with [.] to avoid clashing with float ops. *)

val ( ==. ) : t -> t -> t
val ( <>. ) : t -> t -> t
val ( <. ) : t -> t -> t
val ( <=. ) : t -> t -> t
val ( >. ) : t -> t -> t
val ( >=. ) : t -> t -> t
val ( &&. ) : t -> t -> t
val ( ||. ) : t -> t -> t
val ( +. ) : t -> t -> t
val ( -. ) : t -> t -> t
val ( *. ) : t -> t -> t
val ( /. ) : t -> t -> t
val ( %. ) : t -> t -> t
val not_ : t -> t
val neg : t -> t
val binop : binop -> t -> t -> t
val ite : t -> t -> t -> t

val apply_binop : binop -> int -> int -> int
(** Concrete semantics of a binary operator (division/modulo by zero yield
    0; comparisons and logical operators yield 0/1). *)

val is_const : t -> int option
(** [is_const e] is [Some v] when [e] is a literal constant. *)

val eval : (var -> int) -> t -> int
(** Concrete evaluation under an assignment.  Comparisons and logical operators
    yield 0/1; [Div]/[Mod] by zero yield 0. *)

val vars : t -> var list
(** Distinct variables of [e], in first-occurrence order. *)

val subst : (var -> t option) -> t -> t
(** Capture-free substitution: replace each variable [v] with [f v] when it
    returns [Some]. *)

val compare : t -> t -> int
(** Structural order — stable across processes and runs (ids are not), so
    sorted constraint sets serialize deterministically. *)

val equal : t -> t -> bool
(** O(1): interning makes structural and physical equality coincide. *)

val hash : t -> int
(** O(1) structural hash, usable as a table key together with {!equal}. *)

val pp : t Fmt.t
val to_string : t -> string

val pp_friendly : t Fmt.t
(** Like {!pp} but renders comparisons of a variable against a constant using
    the variable's domain vocabulary, e.g. [autocommit==ON] rather than
    [autocommit==1].  Used for cost-table and report rendering (Table 1). *)
