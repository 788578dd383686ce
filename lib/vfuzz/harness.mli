(** Scoring the pipeline against planted ground truth.

    Every generated system knows which of its parameters are specious (the
    plants, with their poor values) and which merely look configuration-like
    (the decoys).  The harness runs the real pipeline over each, scores
    detection with the paper's case-level verdict ({!Violet.Detect.detected}),
    and aggregates recall (plants detected / plants) and precision (plants
    detected / (plants detected + decoys flagged)) over a corpus. *)

type verdict = {
  v_system : string;
  v_plants : (string * bool) list;  (** plant param, detected? *)
  v_decoys : (string * bool) list;  (** decoy param, wrongly flagged? *)
  v_errors : (string * string) list;  (** param, analysis error (informational) *)
}

type score = {
  s_systems : int;
  s_plants : int;
  s_detected : int;
  s_decoys : int;
  s_flagged : int;
  s_errors : int;
  s_recall : float;  (** 1.0 when there are no plants *)
  s_precision : float;  (** 1.0 when nothing was detected or flagged *)
}

val score_spec : ?opts:Violet.Pipeline.options -> Genspec.t -> verdict
(** Analyze each plant and decoy parameter of one system under [opts]
    (default {!Oracle.default_opts}).  A plant counts detected when
    the poor rows of its analysis enclose the planted poor value; a decoy
    counts flagged when its analysis has any poor row mentioning it.  An
    unused-parameter error on a decoy is the correct answer (not flagged,
    not an error). *)

val aggregate : verdict list -> score

val run : ?opts:Violet.Pipeline.options -> Genspec.t list -> verdict list * score
