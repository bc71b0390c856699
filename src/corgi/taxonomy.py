"""The fixed table of 19 cognitive question templates.

Each template pairs a Bloom-style cognitive subprocess with a question
format.  Indices 1-4 are remembering (easy), 5-17 understanding (medium),
and 18-19 applying (hard).  The table is a closed constant: pipelines and
validators treat it as the single source of truth for index metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

LOAD_EASY = "easy"
LOAD_MEDIUM = "medium"
LOAD_HARD = "hard"

COGNITIVE_LOADS = (LOAD_EASY, LOAD_MEDIUM, LOAD_HARD)


@dataclass(frozen=True)
class CognitiveTemplate:
    index: int
    process: str
    subprocess: str
    load: str
    definition: str
    format_type: str
    format_text: str


_DEF_RECOGNIZING = (
    "locate knowledge in long-term memory that is consistent with presented "
    "material (e.g., Recognize the dates of important events in U.S. history)"
)
_DEF_RECALLING = (
    "retrieve relevant knowledge from long-term memory (e.g., Recall the "
    "dates of important events in U.S. history)"
)
_DEF_INTERPRETING = (
    "change from one form of representation (e.g., numerical) to another "
    "(e.g., verbal) (e.g., Paraphrase important speeches and documents)"
)
_DEF_EXEMPLIFYING = (
    "find a specific example or illustration of a concept or principle "
    "(e.g., Give examples of various artistic painting styles)"
)
_DEF_CLASSIFYING = (
    "determine that something belongs to a category (e.g., concept or "
    "principle) (e.g., Classify observed or described cases of mental disorders)"
)
_DEF_SUMMARIZING = (
    "abstract a general theme or major point(s) (e.g., Write a short summary "
    "of the events portrayed on a videotape)"
)
_DEF_INFERRING = (
    "draw a logical conclusion from presented information (e.g., In learning "
    "a foreign language, infer grammatical principles from examples)"
)
_DEF_COMPARING = (
    "detect correspondences between two ideas, objects, and the like (e.g., "
    "Compare historical events to contemporary situations)"
)
_DEF_EXPLAINING = (
    "construct a cause-and-effect model of a system (e.g., Explain the "
    "causes of important 18th-century events in France)"
)
_DEF_EXECUTING = (
    "apply a procedure to a familiar task (e.g., Divide one whole number by "
    "another whole number, both with multiple digits)"
)
_DEF_USING = (
    "apply a procedure to an unfamiliar task (e.g., Use Newton's Second Law "
    "in situations in which it is appropriate)"
)

_FMT_VERIFICATION = (
    "a verification task, where some information is given and one must "
    "choose whether or not it is correct"
)
_FMT_MATCHING = (
    "a matching task, where two lists are presented and one must choose how "
    "each item in one list corresponds to an item in the other list. But not MCQ"
)
_FMT_CONSTRUCTED_NO_HINTS = (
    "a constructed response question where one is not given any hints or "
    'related information (such as "What is a meter?")'
)
_FMT_FILL_IN_THE_BLANK = (
    "a fill-in-the-blank where several hints are given (such as \"In the "
    'metric system a meter is a measure of ________.")'
)
_FMT_CONSTRUCTED_TRANSFORM = (
    "a constructed response question where information is presented in one "
    "form and one is asked to construct the same information in a different "
    'form (such as "Write an equation that corresponds to the following '
    "statement using T for total cost and P for number of pounds. The total "
    "cost of mailing a package is $2.00 for the first pound plus $1.50 for "
    'each additional pound.")'
)
_FMT_CONSTRUCTED_EXAMPLE = (
    "a constructed response question where one must create an example (such "
    'as "Locate an inorganic compound and tell why it is inorganic")'
)
_FMT_CONSTRUCTED_INSTANCE = (
    "a constructed response question where one is given an instance and must "
    "produce its related concept or principle from a list"
)
_FMT_SORTED_RESPONSE = (
    "a sorted response question where one is given a set of instances and "
    "must determine which ones belong in a specified category and which ones "
    "do not, or must place each instance into one of multiple categories"
)
_FMT_CONSTRUCTED_THEME = (
    "a constructed response question involving either themes or summaries. "
    "Generally speaking, themes are more abstract than summaries. For "
    "example, in a constructed response task, the student may be asked to "
    "read an untitled passage on the California Gold Rush and then write an "
    "appropriate title."
)
_FMT_COMPLETION = (
    "a completion task where one is given a series of items and must "
    "determine what will come next, as in the number series example above "
    "(such as describing the relationship as an equation involving x and y "
    "for situations in which if x is 1, then y is 0; if x is 2, then y is 3; "
    "and if x is 3, then y is 8)."
)
_FMT_ANALOGY = (
    "an analogy task where one is given an analogy of the form A is to B as "
    'C is to D such as "nation" is to "president" as "state" is to _______. '
    "In the example the student's task is to produce or select a term that "
    'fits in the blank and completes the analogy (such as "governor").'
)
_FMT_ODDITY = (
    "an oddity task where one is given three or more items and must "
    "determine which does not belong (such as three physics problems, two "
    "involving one principle and another involving a different principle). "
    "question should not be in MCQ form"
)
_FMT_MAPPING = (
    "a mapping task where one must show how each part of one object, idea, "
    "problem, or situation corresponds to (or maps onto) each part of "
    "another (such as asking to detail how the battery, wire, and resistor "
    "in an electrical circuit are like the pump, pipes, and pipe "
    "constructions in a water flow system, respectively.)"
)
_FMT_REASONING = (
    "a reasoning task where one is asked to offer a reason for a given event "
    '(such as "Why does air enter a bicycle tire pump when you pull up on '
    'the handle?")'
)
_FMT_TROUBLESHOOTING = (
    "a troubleshooting task where one is asked to diagnose what could have "
    'gone wrong in a malfunctioning system (such as "Suppose you pull up and '
    "press down on the handle of a bicycle tire pump several times but no "
    "air comes out. What's wrong?\")"
)
_FMT_REDESIGNING = (
    "a redesigning task where one is asked to change the system to "
    'accomplish some goal (such as "How could you improve a bicycle tire '
    'pump so that it would be more efficient?")'
)
_FMT_PREDICTING = (
    "a predicting task one is asked how a change in one part of a system "
    "will effect a change in another part of the system (such as \"What "
    'would happen if you increased the diameter of the cylinder in a bicycle '
    'tire pump?")'
)
_FMT_EXECUTION = (
    "an execution task where one is given a familiar task that can be "
    'performed using a well-known procedure (such as "Solve for x: x^2 + 2x '
    '- 3 = 0 using the technique of completing the square.")'
)
_FMT_IMPLEMENTATION = (
    "an implementation task where one is given an unfamiliar problem that "
    "must be solved. Thus, begin with specification of the problem. Then, "
    "one is asked to determine the procedure needed to solve the problem, "
    "solve the problem using the selected procedure (making modifications as "
    "necessary), or usually both."
)

COGNITIVE_TEMPLATES: tuple[CognitiveTemplate, ...] = (
    CognitiveTemplate(1, "remembering", "recognizing", LOAD_EASY, _DEF_RECOGNIZING,
                      "verification", _FMT_VERIFICATION),
    CognitiveTemplate(2, "remembering", "recognizing", LOAD_EASY, _DEF_RECOGNIZING,
                      "matching", _FMT_MATCHING),
    CognitiveTemplate(3, "remembering", "recalling", LOAD_EASY, _DEF_RECALLING,
                      "constructed response", _FMT_CONSTRUCTED_NO_HINTS),
    CognitiveTemplate(4, "remembering", "recalling", LOAD_EASY, _DEF_RECALLING,
                      "fill-in-the-blank", _FMT_FILL_IN_THE_BLANK),
    CognitiveTemplate(5, "understanding", "interpreting", LOAD_MEDIUM, _DEF_INTERPRETING,
                      "constructed response", _FMT_CONSTRUCTED_TRANSFORM),
    CognitiveTemplate(6, "understanding", "exemplifying", LOAD_MEDIUM, _DEF_EXEMPLIFYING,
                      "constructed response", _FMT_CONSTRUCTED_EXAMPLE),
    CognitiveTemplate(7, "understanding", "classifying", LOAD_MEDIUM, _DEF_CLASSIFYING,
                      "constructed response", _FMT_CONSTRUCTED_INSTANCE),
    CognitiveTemplate(8, "understanding", "classifying", LOAD_MEDIUM, _DEF_CLASSIFYING,
                      "sorted response", _FMT_SORTED_RESPONSE),
    CognitiveTemplate(9, "understanding", "summarizing", LOAD_MEDIUM, _DEF_SUMMARIZING,
                      "constructed response", _FMT_CONSTRUCTED_THEME),
    CognitiveTemplate(10, "understanding", "inferring", LOAD_MEDIUM, _DEF_INFERRING,
                      "completion", _FMT_COMPLETION),
    CognitiveTemplate(11, "understanding", "inferring", LOAD_MEDIUM, _DEF_INFERRING,
                      "analogy", _FMT_ANALOGY),
    CognitiveTemplate(12, "understanding", "inferring", LOAD_MEDIUM, _DEF_INFERRING,
                      "oddity", _FMT_ODDITY),
    CognitiveTemplate(13, "understanding", "comparing", LOAD_MEDIUM, _DEF_COMPARING,
                      "mapping", _FMT_MAPPING),
    CognitiveTemplate(14, "understanding", "explaining", LOAD_MEDIUM, _DEF_EXPLAINING,
                      "reasoning", _FMT_REASONING),
    CognitiveTemplate(15, "understanding", "explaining", LOAD_MEDIUM, _DEF_EXPLAINING,
                      "troubleshooting", _FMT_TROUBLESHOOTING),
    CognitiveTemplate(16, "understanding", "explaining", LOAD_MEDIUM, _DEF_EXPLAINING,
                      "redesigning", _FMT_REDESIGNING),
    CognitiveTemplate(17, "understanding", "explaining", LOAD_MEDIUM, _DEF_EXPLAINING,
                      "predicting", _FMT_PREDICTING),
    CognitiveTemplate(18, "applying", "executing", LOAD_HARD, _DEF_EXECUTING,
                      "execution", _FMT_EXECUTION),
    CognitiveTemplate(19, "applying", "using", LOAD_HARD, _DEF_USING,
                      "implementation", _FMT_IMPLEMENTATION),
)

MIN_INDEX = 1
MAX_INDEX = 19


def template_for(index: int) -> CognitiveTemplate:
    """Return the template row for a 1-based cognitive index."""
    if not isinstance(index, int) or isinstance(index, bool):
        raise ValueError(f"cognitive index must be an integer, got {index!r}")
    if index < MIN_INDEX or index > MAX_INDEX:
        raise ValueError(f"cognitive index out of range 1..19: {index}")
    return COGNITIVE_TEMPLATES[index - 1]
