package ocr

// ReferenceRecognize exposes the byte-matcher reference to the
// package's external tests, which import packages that import ocr.
var ReferenceRecognize = referenceRecognize
