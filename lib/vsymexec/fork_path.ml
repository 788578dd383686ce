(* O(1) fork-history paths.

   A state's fork path used to be an eagerly-built string, one character
   appended per fork — O(depth) allocation and copying on every fork, paid
   on the exploration hot path whether or not anyone ever read the string.
   Here a path is a persistent chain of one-character steps sharing its
   parent's spine, so forking is a single allocation; the rendered string
   is produced on demand (symbol naming, the final deterministic sort) and
   memoized per node.

   The memo field uses [""] for "not yet rendered" (a rendered step is
   never empty — it carries at least its own tag).  Paths are only
   rendered by the sequential explorer, so the memo sees no concurrent
   writers. *)

type t = Root | Step of { parent : t; tag : char; mutable str : string }

let root = Root
let extend parent tag = Step { parent; tag; str = "" }

let rec length = function Root -> 0 | Step { parent; _ } -> 1 + length parent

let rec to_string = function
  | Root -> ""
  | Step s ->
    if s.str <> "" then s.str
    else begin
      let rendered = to_string s.parent ^ String.make 1 s.tag in
      s.str <- rendered;
      rendered
    end

let compare a b = String.compare (to_string a) (to_string b)
