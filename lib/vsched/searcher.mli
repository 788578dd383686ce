(** Pluggable path-exploration scheduling (the S²E/KLEE "searcher" layer).

    The executor used to hard-code its state-selection policy; this module
    extracts it into a value the caller plugs in.  A {!t} is a declarative
    policy; {!frontier} instantiates it into a live priority queue over the
    executor's states.  The frontier is polymorphic in the state type: policies
    that need to look inside a state (the scored searchers) do so through the
    {!view} the executor provides, so this library stays below the engine in
    the dependency graph.

    The three classic policies reproduce the executor's historical behaviour
    exactly (state for state, pick for pick).  The two scored policies are the
    paper's Section 5 scaling idea made concrete:

    - {!Coverage_guided} prefers states whose pending work contains
      config-dependent branch conditions that no explored state has executed
      yet, weighted by how close the uncovered branch is;
    - {!Config_impact} prefers states whose pending branch conditions read
      many parameters of a given related set — the
      {!Vanalysis.Related_config} output — steering exploration toward the
      configuration logic under analysis. *)

type view = {
  depth : int;  (** branches taken so far (length of the branch trail) *)
  pending : Vir.Ast.expr list;
      (** branch conditions syntactically remaining in the state's
          continuation, nearest first.  Conditions inside functions that are
          called but not yet entered are not included — the view is a cheap
          syntactic horizon, not a reachability analysis. *)
}

type t =
  | Dfs  (** run each state to completion before its sibling *)
  | Bfs
  | Random_path of int  (** seeded random state selection *)
  | Coverage_guided
      (** prioritize states closest to uncovered config-dependent branches *)
  | Config_impact of { related : string list }
      (** weight states by how many related parameters their pending branches
          read; [related = []] means every configuration parameter counts *)

val name : t -> string
(** Short stable identifier: ["dfs"], ["bfs"], ["random"], ["coverage"],
    ["config-impact"]. *)

val of_string : string -> (t, string) result
(** Parse a CLI spelling: [dfs], [bfs], [random] or [random:SEED],
    [coverage], [config-impact].  The config-impact related set is filled in
    by the pipeline (it owns the static analysis), so the CLI form carries an
    empty one. *)

val to_string : t -> string
(** Round-trips with {!of_string}. *)

val run_to_completion : t -> bool
(** True for {!Dfs}: the selected state keeps running until it terminates, so
    the time slice does not apply. *)

(** {1 Live frontiers} *)

type 'a frontier

val frontier : view:('a -> view) -> t -> 'a frontier
(** Instantiate a policy.  [view] is only called by the scored policies, and
    only once per added state. *)

val add : 'a frontier -> preempted:bool -> 'a -> unit
(** Queue a state.  [preempted] distinguishes a state re-queued after its
    time slice expired from a freshly forked child; Dfs keeps fork children
    at the front of its stack but preempted states at the back. *)

val select : 'a frontier -> 'a option
(** Remove and return the next state to run, or [None] when empty. *)

val length : 'a frontier -> int

val mark_covered : 'a frontier -> Vir.Ast.expr -> unit
(** Coverage feedback: the executor reports every branch condition it
    actually executes.  Only {!Coverage_guided} frontiers retain it. *)

val frontier_name : 'a frontier -> string

(** {1 Checkpointing and degradation} *)

type 'a dump = {
  d_states : 'a list;  (** queued states, internal order *)
  d_rng : Random.State.t option;  (** {!Random_path} selection rng *)
  d_covered : Vir.Ast.expr list;  (** {!Coverage_guided} covered set *)
}
(** A frontier's full scheduling state.  Restoring a dump into a fresh
    frontier of the same policy reproduces the original's future selection
    sequence exactly — the property checkpoint/resume relies on. *)

val dump : 'a frontier -> 'a dump
(** Read-only: the frontier is left untouched. *)

val restore : 'a frontier -> 'a dump -> unit
(** Replace the frontier's contents (and rng/covered set where the policy
    has one) with the dump's. *)

val drop_weakest : 'a frontier -> keep:int -> 'a list
(** Degradation rung 3: shrink the frontier to its [keep] highest-priority
    states and return the dropped ones.  "Weakest" follows each policy's own
    selection order: the back of the Dfs stack, the front of the Bfs queue,
    the oldest states for Random_path, the lowest-scored entries for the
    scored policies. *)
