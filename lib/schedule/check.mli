(** Structural and timing legality checks for schedules.

    Used by the test-suite and as a debugging aid: a schedule produced by
    {!Engine.run} must always pass. *)

type violation = {
  code : string;     (** stable machine-readable identifier *)
  message : string;  (** human-readable description *)
}

val validate : tc:float -> Types.t -> violation list
(** [validate ~tc sched] returns all detected violations (empty when the
    schedule is legal):

    - ["binding"]: an operation runs on a component of the wrong kind;
    - ["dependency"]: a child starts before [finish parent + tc]
      (or before [finish parent] for in-place consumption);
    - ["overlap"]: two operations overlap in time on one component;
    - ["wash"]: consecutive non-in-place operations on a component are
      separated by less than the residue's wash time;
    - ["transport"]: a transport window is inconsistent
      ([removal > depart], [arrive <> depart + tc], wrong endpoints);
    - ["makespan"]: [makespan] is not the maximum finish time. *)
