(** The paper's four specious-configuration code patterns (Section 2.3), as
    minimal executable demonstrations.

    1. the parameter causes an expensive operation (fsync) to execute;
    2. the parameter adds synchronization that shrinks concurrency;
    3. the parameter steers execution onto a slow path (cache bypass);
    4. the parameter makes a threshold cross frequently, triggering a
       costly operation.

    Each pattern is a self-contained target whose analysis must mark the
    pattern's poor value; used by documentation and tests. *)

type pattern = {
  id : int;
  name : string;
  description : string;
  target : Violet.Pipeline.target;
  param : string;  (** the specious parameter *)
  poor : (string * string) list;
  expected_trigger : string;
      (** substring expected in the dominant trigger label, e.g. "Lat." *)
}

val expensive_operation : pattern
val extra_synchronization : pattern
val slow_path : pattern
val threshold_crossing : pattern
val all : pattern list
